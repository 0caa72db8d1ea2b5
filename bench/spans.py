"""Layer tracing from outside the program.

The tracer replaces module attributes that the program's own callers
resolve at call time (``subsetflow.retraction.merge_time``,
``subsetflow.verify.check_*`` and so on) with wrappers that record a span,
and the space classes' ``distance``/``geodesic_point`` with wrappers that
only count.  Spans stay in memory as ``(name, parent, start, end)`` and are
written out when the run ends; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import json
import time

# (module, attribute) pairs wrapped with spans.  The verify entries are the
# names bound_suite and lipschitz_scan look up in their own module.
SPAN_TARGETS = (
    ("retraction", "order_tuple"),
    ("retraction", "min_gap"),
    ("retraction", "merge_time"),
    ("retraction", "to_set"),
    ("verify", "sample_subset"),
    ("verify", "perturb_subset"),
    ("verify", "hausdorff_distance"),
    ("verify", "flow_adaptive"),
    ("verify", "full_resolvent_oracle"),
    ("verify", "cat0_audit"),
)
COUNTED_METHODS = ("distance", "geodesic_point")


class Tracer:
    def __init__(self, sf):
        self.spans: list = []
        self.stack: list[int] = []
        self.counting = [False]
        self.counts: dict[tuple[str, str], int] = {}
        self.merges: list = []  # (tuple, cfg, merge time) of merge_time calls while counting
        self._saved: list = []
        modules = {name: getattr(sf, name) for name in ("retraction", "verify")}
        self.targets = [(modules[m], attr, f"{m}.{attr}") for m, attr in SPAN_TARGETS]
        self.targets += [(sf.verify, attr, f"verify.{attr}") for attr in sorted(vars(sf.verify))
                         if attr.startswith("check_")]
        self.classes = (sf.EuclideanSpace, sf.HyperboloidSpace, sf.TreeSpace)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counting, merges = self.counting, self.merges
        record_merge = name == "retraction.merge_time"

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if record_merge and counting[0]:
                merges.append((args, kwargs, out[0]))
            return out

        return wrapper

    def _counter(self, key, fn):
        counts, counting = self.counts, self.counting
        counts.setdefault(key, 0)

        def wrapper(*args):
            if counting[0]:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for owner, attr, name in self.targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn))
        for cls in self.classes:
            for attr in COUNTED_METHODS:
                fn = cls.__dict__[attr]
                self._saved.append((cls, attr, fn))
                setattr(cls, attr, self._counter((cls.kind, attr), fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis ------------------------------------------------------------

    def roots(self) -> list[int]:
        """For every span, the id of the benchmark operation it ran under."""
        root = []
        for sid, (name, parent, _, _) in enumerate(self.spans):
            root.append(sid if name.startswith("op:") else (root[parent] if parent >= 0 else -1))
        return root

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
