"""Reference geometry and output checks, written apart from the program.

Nothing here calls into ``subsetflow``: distances, midpoints and the exact
1-D flow are computed from their textbook formulas, so a fault in the
program's kernels cannot hide itself by agreeing with the check.  Points
are read through their public ``data`` tuples only.
"""

from __future__ import annotations

import math

# A retract may overshoot the δ/2 merge horizon by this fraction (the
# program's documented march slack).
MERGE_SLACK = 1e-3
# Relative allowance for rounding when a proved inequality is re-evaluated
# with independently computed distances.
ROUNDING = 1e-9


def lipschitz_bound(n: int) -> float:
    """The paper's constant max(4n^{3/2}+1, 2n^2+sqrt(n))."""
    return max(4.0 * n**1.5 + 1.0, 2.0 * n * n + math.sqrt(n))


class RefTree:
    """A metric tree from an edge list ``[(id, from, to, length), ...]``.

    Node distances and parent pointers come from one depth-first pass per
    node; points are ``(edge_id, offset)`` with the offset measured from
    the edge's ``from`` end, as in the program's tree points.
    """

    def __init__(self, edges):
        self.edges = {e: (a, b, float(length)) for e, a, b, length in edges}
        adj: dict[int, list[tuple[int, float]]] = {}
        for a, b, length in self.edges.values():
            adj.setdefault(a, []).append((b, length))
            adj.setdefault(b, []).append((a, length))
        self.dist: dict[int, dict[int, float]] = {}
        self.toward: dict[int, dict[int, int]] = {}  # toward[root][v] = next node from v to root
        for root in adj:
            dist = {root: 0.0}
            toward = {root: root}
            stack = [root]
            while stack:
                u = stack.pop()
                for v, length in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + length
                        toward[v] = u
                        stack.append(v)
            self.dist[root] = dist
            self.toward[root] = toward

    def _ends(self, p):
        # (node, distance from p to that node) for both ends of p's edge
        a, b, length = self.edges[p[0]]
        return ((a, p[1]), (b, length - p[1]))

    def distance(self, p, q) -> float:
        if p[0] == q[0]:
            return abs(p[1] - q[1])
        return min(rp + self.dist[u][v] + rq
                   for u, rp in self._ends(p) for v, rq in self._ends(q))

    def _edge_between(self, u, v):
        for e, (a, b, _) in self.edges.items():
            if {a, b} == {u, v}:
                return e
        raise KeyError((u, v))

    def midpoint(self, p, q):
        """Walk half the geodesic from p toward q, node by node."""
        total = self.distance(p, q)
        half = 0.5 * total
        if p[0] == q[0]:
            return (p[0], 0.5 * (p[1] + q[1]))
        # the route leaves p's edge at node u and enters q's edge at node v
        _, u, rp, v = min((rp + self.dist[u][v] + rq, u, rp, v)
                          for u, rp in self._ends(p) for v, rq in self._ends(q))
        a, b, length = self.edges[p[0]]
        if half <= rp:
            return (p[0], p[1] - half if u == a else p[1] + half)
        s = half - rp
        node = u
        while node != v:
            nxt = self.toward[v][node]
            step = self.dist[v][node] - self.dist[v][nxt]
            if s <= step:
                e = self._edge_between(node, nxt)
                ea, _, elen = self.edges[e]
                return (e, s if node == ea else elen - s)
            s -= step
            node = nxt
        qa, _, qlen = self.edges[q[0]]
        return (q[0], s if v == qa else qlen - s)


def euclidean_distance(p, q) -> float:
    return math.dist(p, q)


def hyperboloid_distance(p, q) -> float:
    # 2·asinh(|p−q|_M / 2): exact for two points on the sheet and free of
    # the cancellation arcosh(−<p,q>) suffers at small separations
    diff = [a - b for a, b in zip(p, q)]
    md = sum(c * c for c in diff[1:]) - diff[0] * diff[0]
    return 2.0 * math.asinh(0.5 * math.sqrt(max(md, 0.0)))


def euclidean_midpoint(p, q):
    return tuple(0.5 * (a + b) for a, b in zip(p, q))


def hyperboloid_midpoint(p, q):
    s = [a + b for a, b in zip(p, q)]
    norm = math.sqrt(s[0] * s[0] - sum(c * c for c in s[1:]))
    return tuple(c / norm for c in s)


class RefSpace:
    """Independent distance and midpoint for one benchmark backend."""

    def __init__(self, kind: str, tree: RefTree | None = None):
        self.kind = kind
        if kind == "euclidean":
            self.distance, self.midpoint = euclidean_distance, euclidean_midpoint
        elif kind == "hyperboloid":
            self.distance, self.midpoint = hyperboloid_distance, hyperboloid_midpoint
        else:
            self.distance, self.midpoint = tree.distance, tree.midpoint

    def hausdorff(self, a, b) -> float:
        d = self.distance
        return max(max(min(d(p, q) for q in b) for p in a),
                   max(min(d(p, q) for p in a) for q in b))

    def min_gap(self, pts) -> float:
        return min(self.distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])


def exact_line_merge(xs) -> list[float]:
    """The exact flow on R^1 at its first merge time δ/2.

    With the coordinates sorted, the k-th point moves at speed n−1−2k (one
    unit per point above minus one per point below), so every adjacent gap
    closes at rate 2 and the closest gap δ vanishes at t = δ/2.
    """
    xs = sorted(xs)
    n = len(xs)
    delta = min(b - a for a, b in zip(xs, xs[1:]))
    return [x + (n - 1 - 2 * k) * 0.5 * delta for k, x in enumerate(xs)]


class Checks:
    """Runs the output checks and counts how often each one executed."""

    def __init__(self):
        self.executed: dict[str, int] = {}
        self.violations: list[str] = []

    def _check(self, name: str, ok: bool, detail) -> bool:
        self.executed[name] = self.executed.get(name, 0) + 1
        if not ok:
            self.violations.append(f"{name}: {detail}")
        return ok

    def retract(self, ref: RefSpace, inp, out, n: int, merge_time: float) -> bool:
        """Properties every retract of a full n-point set must have."""
        delta = ref.min_gap(inp)
        ok = self._check("cardinality", len(out) <= n - 1, (len(inp), len(out), n))
        moved = ref.hausdorff(inp, out)
        ok &= self._check("hausdorff_bound", moved <= n**1.5 * delta * (1.0 + ROUNDING),
                          (moved, n, delta))
        ok &= self._check("merge_time_bound", merge_time <= 0.5 * delta * (1.0 + MERGE_SLACK),
                          (merge_time, delta))
        if n == 2:
            mid = ref.midpoint(inp[0], inp[1])
            err = ref.distance(out[0], mid)
            ok &= self._check("two_point_midpoint", len(out) == 1 and err <= 1e-9 * max(1.0, delta),
                              (out, mid, err))
        return ok

    def identity(self, inp, out, merge_time: float) -> bool:
        return self._check("identity_below_n", tuple(inp) == tuple(out) and merge_time == 0.0,
                           (inp, out, merge_time))

    def line(self, xs, out, n: int, sweeps: int) -> bool:
        """A retract in R^1 against the exact flow, within the n·δ/k lag."""
        exact = [(x,) for x in exact_line_merge(xs)]
        delta = min(b - a for a, b in zip(sorted(xs), sorted(xs)[1:]))
        err = RefSpace("euclidean").hausdorff(exact, out)
        return self._check("line_exact_flow", err <= n * delta / sweeps, (xs, out, err))

    def ratio(self, name: str, ratio: float, n: int) -> bool:
        """A Lipschitz ratio against the bound computed here."""
        self.executed[name] = self.executed.get(name, 0) + 1
        return ratio <= lipschitz_bound(n)

    def suite_row(self, row, n: int) -> bool:
        self.executed["suite_row"] = self.executed.get("suite_row", 0) + 1
        if row.name == "lipschitz_ratio" and row.trials > 0 and row.worst > lipschitz_bound(n):
            return False
        return bool(row.passed)
