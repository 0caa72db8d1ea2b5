"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity through a different route than the
library (grid search instead of closed forms, DFS path walks instead of
precomputed tables) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import decimal
import itertools
import math
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from subsetflow import GeometryError, PointTuple
from subsetflow.flow import _set_partitions, oracle_supports


def grid_pair_prox(p, q, lam, levels=14, grid=13):
    """Brute-force pair proximal step in euclidean space.

    Minimizes |y1 - y2| + (|y1 - p|^2 + |y2 - q|^2) / (2 lam) by nested
    grid refinement: a (grid)^(2 dim) lattice around the current best
    pair, shrunk by 1/3 per level (the argmin plus a two-cell margin).
    The objective is convex, so the true optimum never escapes the
    refinement window.  Final resolution ~ span * 3^-levels.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dim = p.size
    c1, c2 = p.copy(), q.copy()
    h = float(np.linalg.norm(p - q)) + 2.0 * lam + 1e-3
    for _ in range(levels):
        offs = np.linspace(-h, h, grid)
        axes = [c1[d] + offs for d in range(dim)] + [c2[d] + offs for d in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        ys = np.stack([m.ravel() for m in mesh], axis=1)
        y1, y2 = ys[:, :dim], ys[:, dim:]
        val = (
            np.linalg.norm(y1 - y2, axis=1)
            + ((y1 - p) ** 2).sum(axis=1) / (2.0 * lam)
            + ((y2 - q) ** 2).sum(axis=1) / (2.0 * lam)
        )
        best = int(val.argmin())
        c1, c2 = y1[best].copy(), y2[best].copy()
        h *= 4.0 / (grid - 1)
    return c1, c2


def tree_vertex_path_length(edges, u, v):
    """Length of the unique vertex-to-vertex path, found by plain DFS."""
    adj = defaultdict(list)
    for e in edges:
        adj[e.from_node].append((e.to_node, e.length))
        adj[e.to_node].append((e.from_node, e.length))
    stack = [(u, 0.0, None)]
    while stack:
        node, acc, parent = stack.pop()
        if node == v:
            return acc
        for nxt, length in adj[node]:
            if nxt != parent:
                stack.append((nxt, acc + length, node))
    raise AssertionError(f"no path from {u} to {v}")


def tree_point_distance(topology, a, b):
    """Distance between tree points (edge_id, offset) via path enumeration.

    On a tree the same-edge route is the only simple path between two
    interior points of one edge; otherwise the geodesic exits through one
    of the two endpoints on each side (four combinations).
    """
    edge_by_id = {e.id: e for e in topology.edges}
    ea, oa = a
    eb, ob = b
    if ea == eb:
        return abs(oa - ob)
    A, B = edge_by_id[ea], edge_by_id[eb]
    best = math.inf
    for ua, da in ((A.from_node, oa), (A.to_node, A.length - oa)):
        for ub, db in ((B.from_node, ob), (B.to_node, B.length - ob)):
            best = min(best, da + tree_vertex_path_length(topology.edges, ua, ub) + db)
    return best


def hyperboloid_distance_ref(p, q):
    """Plain arcosh of the Minkowski product; fine away from tiny angles."""
    prod = -p[0] * q[0] + sum(a * b for a, b in zip(p[1:], q[1:]))
    return math.acosh(max(1.0, -prod))


def hyperboloid_distance_decimal(p, q, digits=50):
    """Distance of two hyperboloid points from their spatial parts alone.

    Each x0 is derived as sqrt(1 + |xs|^2), and arcosh of the Minkowski
    product is taken as log(z + sqrt(z^2 - 1)), all in decimal arithmetic at
    ``digits`` significant digits.  A stored x0 that disagrees with its
    spatial part by rounding does not enter, so far from the apex this
    resolves arc length that the float Minkowski product cancels away.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        xs = [decimal.Decimal(c) for c in p[1:]]
        ys = [decimal.Decimal(c) for c in q[1:]]
        x0 = (1 + sum(c * c for c in xs)).sqrt()
        y0 = (1 + sum(c * c for c in ys)).sqrt()
        z = x0 * y0 - sum(a * b for a, b in zip(xs, ys))
        return float((z + (z * z - 1).sqrt()).ln()) if z > 1 else 0.0


def brute_hausdorff(space, pts_a, pts_b):
    """Textbook double max-min, written directly against the space API."""
    d = space.distance
    forward = max(min(d(x, y) for y in pts_b) for x in pts_a)
    backward = max(min(d(x, y) for x in pts_a) for y in pts_b)
    return max(forward, backward)


# The library's reference resolvent as it stood on numpy, kept to compare the
# plain-float one against: the same enumeration, pruning, tie rule and Newton
# constants, with the Newton systems solved by np.linalg.solve.


def reduced_minimize_ref(pts: np.ndarray, blocks: list[list[int]], lam: float):
    """subsetflow.flow._reduced_minimize with numpy arrays and np.linalg.solve."""
    dim = pts.shape[1]
    m = len(blocks)
    sizes = np.array([len(b) for b in blocks], dtype=float)
    means = np.array([pts[b].mean(axis=0) for b in blocks])
    # Sum of squared distances from each block's members to its mean is a
    # constant of the pattern; fold it in so values are comparable.
    base = sum(float(((pts[b] - means[i]) ** 2).sum()) for i, b in enumerate(blocks)) / (2.0 * lam)
    if m == 1:
        return base, means

    weights = np.outer(sizes, sizes)

    def value(u):
        v = base
        for a in range(m - 1):
            for b in range(a + 1, m):
                v += weights[a, b] * float(np.linalg.norm(u[a] - u[b]))
        v += float((sizes * ((u - means) ** 2).sum(axis=1)).sum()) / (2.0 * lam)
        return v

    def grad_hess(u):
        g = (sizes[:, None] / lam) * (u - means)
        h = np.zeros((m * dim, m * dim))
        for a in range(m):
            h[a * dim:(a + 1) * dim, a * dim:(a + 1) * dim] += (sizes[a] / lam) * np.eye(dim)
        for a in range(m - 1):
            for b in range(a + 1, m):
                diff = u[a] - u[b]
                r = float(np.linalg.norm(diff))
                if r < 1e-9:
                    return None, None
                unit = diff / r
                g[a] += weights[a, b] * unit
                g[b] -= weights[a, b] * unit
                block = (weights[a, b] / r) * (np.eye(dim) - np.outer(unit, unit))
                h[a * dim:(a + 1) * dim, a * dim:(a + 1) * dim] += block
                h[b * dim:(b + 1) * dim, b * dim:(b + 1) * dim] += block
                h[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] -= block
                h[b * dim:(b + 1) * dim, a * dim:(a + 1) * dim] -= block
        return g, h

    u = means.copy()
    val = value(u)
    for _ in range(100):
        g, h = grad_hess(u)
        if g is None:
            return None
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-10:
            break
        step = np.linalg.solve(h, -g.reshape(-1)).reshape(m, dim)
        descent = float((g.reshape(-1) * step.reshape(-1)).sum())
        if -descent <= 64.0 * np.finfo(float).eps * max(1.0, abs(val)):
            # The predicted decrease is below the float resolution of the
            # value, so an Armijo test would accept zero-progress steps.
            # Finish with pure Newton steps gated on gradient contraction.
            g2, _ = grad_hess(u + step)
            if g2 is None or not float(np.linalg.norm(g2)) < 0.5 * gnorm:
                break
            u = u + step
            val = value(u)
            continue
        alpha = 1.0
        moved = False
        while alpha > 1e-14:
            cand = u + alpha * step
            cand_val = value(cand)
            if cand_val <= val + 1e-4 * alpha * descent:
                u = cand
                val = cand_val
                moved = True
                break
            alpha *= 0.5
        if not moved:
            break
    g, _ = grad_hess(u)
    if g is None or float(np.linalg.norm(g)) > 1e-8:
        return None
    return val, u


def full_resolvent_ref(x: PointTuple, lam: float) -> PointTuple:
    """subsetflow.full_resolvent_oracle on numpy, solving each pattern by reduced_minimize_ref."""
    space = x.space
    n = len(x)
    if not oracle_supports(space, n):
        raise GeometryError("the reference resolvent supports only euclidean tuples with n*dim <= 8")
    if lam <= 0.0:
        raise GeometryError("step size must be positive")
    if n < 2:
        return x
    pts = np.array([p.data for p in x.coords], dtype=float)
    reach = 2.0 * (n - 1) * lam * (1.0 + 1e-9) + 1e-12

    best_val = math.inf
    best = None
    for blocks in _set_partitions(n):
        feasible = True
        for b in blocks:
            for ai, bi in itertools.combinations(b, 2):
                if float(np.linalg.norm(pts[ai] - pts[bi])) > reach:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        solved = reduced_minimize_ref(pts, blocks, lam)
        if solved is None:
            continue
        val, u = solved
        if val < best_val:
            best_val = val
            best = (blocks, u)

    if best is None:
        raise GeometryError("reference resolvent failed to certify any coincidence pattern")
    blocks, u = best
    out = [None] * n
    for bi, block in enumerate(blocks):
        p = space.point(u[bi])
        for idx in block:
            out[idx] = p
    return PointTuple(space, tuple(out))


# The library's exact tree flow as it stood with one call per point and per
# branch test, kept to compare the one-pass event loop against: the same
# event rule and the same float operations in the same order.


class MoveRef(NamedTuple):
    """How a tree point moves until the next event of the exact flow."""

    edge: object  # the TreeEdge it moves along
    offset: float  # where it is on that edge
    sign: float  # +1.0 toward the edge's to_node, -1.0 toward its from_node
    speed: int
    toward: list  # per slot of the flow, whether it moves toward that slot's point

    def arrival(self) -> float:
        # When it reaches the vertex ahead, if no collision comes first.
        leg = self.edge.length - self.offset if self.sign > 0.0 else self.offset
        return leg / self.speed


def tree_routes_ref(space, pd: tuple, qd: tuple) -> tuple[tuple, tuple]:
    """The shortest routes from pd to qd and back, found in one fused pass.

    pd and qd lie on two edges.  A route is (length, leg from its start to
    the exit node of the start's edge, exit node, entry node of the end's
    edge).  The pass runs pd's ends outside and qd's inside and forms both
    directions' sums, each from its own row; the way there keeps the first
    strict minimum, the way back among equal lengths the earlier qd end.
    """
    a, b, length_p, dist_a, dist_b = space._table[pd[0]]
    c, d, length_q, dist_c, dist_d = space._table[qd[0]]
    o, oq = pd[1], qd[1]
    ends_q = ((c, oq, dist_c), (d, length_q - oq, dist_d))
    fwd = rev = None
    for na, ra, row_a in ((a, o, dist_a), (b, length_p - o, dist_b)):
        for j, (nb, rb, row_b) in enumerate(ends_q):
            length = ra + row_a[nb] + rb
            if fwd is None or length < fwd[0]:
                fwd = (length, ra, na, nb)
            length = rb + row_b[na] + ra
            if rev is None or length < rev[0] or (length == rev[0] and j < rev_j):
                rev = (length, rb, nb, na)
                rev_j = j
    return fwd, rev


def tree_branch_ref(space, row: dict, node: int, qd: tuple):
    # The first edge from the vertex node toward the point qd != node; row is
    # node's row of space._next_edge.
    a, b, _, _, _ = space._table[qd[0]]
    return row[b] if a == node else row[a]


def tree_motion_ref(space, i: int, data: list[tuple]) -> MoveRef | None:
    """How point i of data moves until the next event; None if it stays."""
    edge_id, o = data[i]
    edge = space._edge_by_id[edge_id]
    others = len(data) - 1
    if 0.0 < o < edge.length:
        v = edge.to_node
        row = space._next_edge[v]
        ahead = [qd[1] > o if qd[0] == edge_id else tree_branch_ref(space, row, v, qd) is not edge
                 for qd in data]
        ahead[i] = False
        speed = 2 * sum(ahead) - others
        if speed == 0:
            return None
        if speed > 0:
            return MoveRef(edge, o, 1.0, speed, ahead)
        return MoveRef(edge, o, -1.0, -speed, [not a for a in ahead])
    v = edge.from_node if o == 0.0 else edge.to_node
    row = space._next_edge[v]
    branches = [None if j == i else tree_branch_ref(space, row, v, qd) for j, qd in enumerate(data)]
    (b, count), = Counter(branches[:i] + branches[i + 1:]).most_common(1)
    speed = 2 * count - others
    if speed <= 0:
        return None
    sign = 1.0 if v == b.from_node else -1.0
    return MoveRef(b, b.endpoint_offset(v), sign, speed, [c is b for c in branches])


def tree_first_collision_ref(space, data: list[tuple]) -> tuple[float, list[tuple]]:
    """subsetflow.TreeSpace._first_collision with one tree_motion_ref call per point."""
    n = len(data)
    data = list(data)
    pairs = list(itertools.combinations(range(n), 2))
    t = 0.0
    for _ in range(n * (len(space.topology.edges) + 1)):
        moves = [tree_motion_ref(space, i, data) for i in range(n)]
        arrivals = [math.inf if m is None else m.arrival() for m in moves]
        pull = [[0] * n if m is None else [m.speed if a else -m.speed for a in m.toward]
                for m in moves]
        meets = []
        for i, j in pairs:
            d = space._gap(data[i], data[j])
            rate = pull[i][j] + pull[j][i]
            if d == 0.0:
                meets.append(0.0)
            else:
                meets.append(d / rate if rate > 0 else math.inf)
        h = min(min(arrivals), min(meets))
        if h == math.inf:
            raise GeometryError("no two points of the flow approach each other")
        for i, m in enumerate(moves):
            if m is None:
                continue
            edge = m.edge
            if arrivals[i] == h:
                o = edge.length if m.sign > 0.0 else 0.0
            else:
                o = min(max(m.offset + m.sign * m.speed * h, 0.0), edge.length)
            data[i] = space._place(edge, o)
        t += h
        hits = [pair for pair, tc in zip(pairs, meets) if tc == h]
        if hits:
            for i, j in hits:
                old, new = data[j], data[i]
                data = [new if d is old else d for d in data]
            return t, data
    raise GeometryError("the exact tree flow ran past its event bound")
