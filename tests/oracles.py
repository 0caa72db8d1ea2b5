"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity through a different route than the
library (grid search instead of closed forms, DFS path walks instead of
precomputed tables) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from subsetflow import (EuclideanSpace, GeometryError, HyperboloidSpace, PointTuple, TreeEdge,
                        TreeSpace, TreeTopology, flow)
from subsetflow.flow import _certify, _pair_norms, _residual, oracle_supports


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


def hyperboloid_geodesic_decimal(p, q, t, digits=50):
    """The point at fraction t from p to q on the hyperboloid, from their spatial parts alone.

    As in ``hyperboloid_distance_decimal``, each x0 is derived from its
    spatial part and the distance theta is arcosh of the Minkowski product.
    The spatial parts are blended with the weights sinh((1 - t) theta) /
    sinh theta and sinh(t theta) / sinh theta, sinh taken from exp, and x0 is
    derived again; all in decimal arithmetic at ``digits`` significant digits.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        xs = [decimal.Decimal(c) for c in p[1:]]
        ys = [decimal.Decimal(c) for c in q[1:]]
        theta = _hyperboloid_theta_decimal(xs, ys)
        t = decimal.Decimal(t)

        def sinh(v):
            return (v.exp() - (-v).exp()) / 2

        wp, wq = sinh((1 - t) * theta) / sinh(theta), sinh(t * theta) / sinh(theta)
        blend = [wp * a + wq * b for a, b in zip(xs, ys)]
        return tuple(float(c) for c in [(1 + sum(c * c for c in blend)).sqrt()] + blend)


def _hyperboloid_theta_decimal(xs, ys):
    # arcosh of the Minkowski product of the points with spatial parts xs and
    # ys, x0 derived from each, in the decimal context that is current.
    x0 = (1 + sum(c * c for c in xs)).sqrt()
    y0 = (1 + sum(c * c for c in ys)).sqrt()
    z = x0 * y0 - sum(a * b for a, b in zip(xs, ys))
    return (z + (z * z - 1).sqrt()).ln()


def hyperboloid_pair_step_decimal(p, q, lam, digits=50):
    """The two-point resolvent of hyperboloid points p and q at step lam, from their spatial parts alone.

    The distance theta is taken as in ``hyperboloid_geodesic_decimal``.
    Where theta <= 2 lam both ends go to the midpoint, the point at t = 1/2;
    else each end moves lam toward the other, to the point at t = lam / theta
    from its own end.  Each point is ``hyperboloid_geodesic_decimal``'s, t
    computed in decimal arithmetic at ``digits`` significant digits.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        theta = _hyperboloid_theta_decimal([decimal.Decimal(c) for c in p[1:]],
                                           [decimal.Decimal(c) for c in q[1:]])
        lam = decimal.Decimal(lam)
        if theta <= 2 * lam:
            mid = hyperboloid_geodesic_decimal(p, q, decimal.Decimal("0.5"), digits)
            return mid, mid
        t = lam / theta
    return hyperboloid_geodesic_decimal(p, q, t, digits), hyperboloid_geodesic_decimal(q, p, t, digits)


def brute_hausdorff(space, pts_a, pts_b):
    """Textbook double max-min, written directly against the space API."""
    d = space.distance
    forward = max(min(d(x, y) for y in pts_b) for x in pts_a)
    backward = max(min(d(x, y) for x in pts_a) for y in pts_b)
    return max(forward, backward)


def public_perturb_point(space, p, scale, rng):
    """A perturbation through the public, checking methods alone.

    ``distance`` measures the gap to the target and ``geodesic_point``
    measures it again and moves along it, each checking both points, so the
    library's one-measurement kernel must equal it bit for bit.
    """
    target = space.random_point(rng)
    d = space.distance(p, target)
    if d < 1e-12:
        return p
    step = min(abs(rng.gauss(0.0, scale)), d)
    return space.geodesic_point(p, target, step / d)


def two_pass_hausdorff(a, b):
    """Hausdorff distance in two directed passes, each measuring its own gaps.

    Both passes call the gap kernel with p from a and q from b, take each
    point's min and start the max at 0.0, so the library's one-measurement
    form must equal it bit for bit.
    """
    gap = a.space._gap
    ad = [p.data for p in a.points]
    bd = [q.data for q in b.points]
    worst = 0.0
    for p in ad:
        worst = max(worst, min(gap(p, q) for q in bd))
    for q in bd:
        worst = max(worst, min(gap(p, q) for p in ad))
    return worst


# The library's reference resolvent as it stood on numpy, before the dual solve
# replaced it, kept to compare the dual solve against: it enumerates the
# coincidence patterns, prunes those whose merged points start too far apart,
# solves each by Newton iteration with np.linalg.solve, and takes the first of
# least value.


def _set_partitions(n: int):
    """Partitions of range(n), each a list of blocks.

    The last element joins each block of a partition of range(n - 1) in
    turn, then opens a block of its own.  Enumerating them is how
    ``full_resolvent_ref`` looks for the minimizer's coincidence pattern,
    and how the library's reference resolvent did before its dual solve;
    both pick a wrong pattern on the same inputs, where a Newton solve drops
    the optimal one (``test_oracle_beats_the_enumeration_where_it_was_wrong``
    in tests/test_flow.py lists them).
    """
    if n == 0:
        yield []
        return
    for blocks in _set_partitions(n - 1):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [n - 1]] + blocks[i + 1:]
        yield blocks + [[n - 1]]


def reduced_minimize_ref(pts: np.ndarray, blocks: list[list[int]], lam: float):
    """Minimize the resolvent's objective with the points of each block merged.

    A damped Newton iteration on numpy arrays, solved by np.linalg.solve.
    Returns (value, block points), or None when two blocks come within 1e-9
    of each other or the gradient ends above 1e-8.
    """
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
    """The resolvent of the full objective: the best pattern, each solved by reduced_minimize_ref."""
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


# The library's dual solve of the reference resolvent as it stood in generic
# flat-list code, kept to compare the kernels generated per shape against: the
# same float operations in the same order, bit for bit.


def dual_solve_ref(pts: list[tuple], lam: float) -> list[tuple]:
    """J_lam(pts) as ``flow._dual_solve`` computes it, on flat lists.

    The lists are coordinate-major: coordinate c of slot i is entry c*n + i,
    that of pair p (in itertools.combinations order) entry c*P + p, P pairs;
    firsts and seconds map a pair entry to its slots' entries.  An iterate
    with every pair farther apart than the snap has the pairs' unit vectors as
    its subgradients; one with a pair within it goes through the library's
    ``_certify``.  The momentum, restart and acceptance rules are
    ``_dual_solve``'s.  Raises GeometryError after
    ``flow.ORACLE_MAX_ITERATIONS`` steps, read at call time.
    """
    n, dim = len(pts), len(pts[0])
    pairs = list(itertools.combinations(range(n), 2))
    firsts = [c * n + i for c in range(dim) for i, _ in pairs]
    seconds = [c * n + j for c in range(dim) for _, j in pairs]
    x = [c for col in zip(*pts) for c in col]
    d = [x[i] - x[j] for i, j in zip(firsts, seconds)]
    norms = _pair_norms(d, dim)
    v = [a / b if b > 0.0 else 0.0 for a, b in zip(d, norms)]
    floor = max(1e-11, 64.0 * math.ulp(1.0) * max(map(abs, x)) / lam)
    near = 1e-9 * max(norms) / lam
    tau = 1.0 / (lam * n)
    w, t, stalled, last = v, 1.0, False, math.inf
    for _ in range(flow.ORACLE_MAX_ITERATIONS + 1):
        push = [0.0] * len(x)
        for a, i, j in zip(w, firsts, seconds):
            push[i] += a
            push[j] -= a
        z = [a - lam * b for a, b in zip(x, push)]
        d = [z[i] - z[j] for i, j in zip(firsts, seconds)]
        norms = _pair_norms(d, dim)
        if min(norms) > flow.ORACLE_SNAP * lam:
            g = [a / b for a, b in zip(d, norms)]
            res = math.hypot(*_residual(x, z, g, firsts, seconds, lam))
            label, snapped = list(range(n)), z
        else:
            res, label, snapped = _certify(x, z, w, d, norms, firsts, seconds, dim, lam)
        if res <= floor or (stalled and res <= near):
            made = {a: tuple(snapped[i::n]) for i, a in enumerate(label)}
            return [made[a] for a in label]
        u = [a + tau * b for a, b in zip(w, d)]
        step = [a / b if b > 1.0 else a for a, b in zip(u, _pair_norms(u, dim))]
        move = math.hypot(*[a - b for a, b in zip(step, v)])
        stalled = move <= 64.0 * math.ulp(1.0)
        if math.fsum([(a - b) * (b - c) for a, b, c in zip(w, step, v)]) > 0.0 or move < 0.1 * last:
            t, w = 1.0, step
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            w = [b + (t - 1.0) / t_next * (b - c) for b, c in zip(step, v)]
            t = t_next
        v, last = step, move
    raise GeometryError(f"reference resolvent not certified in {flow.ORACLE_MAX_ITERATIONS} iterations")


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


@functools.cache
def tree_edges_ref(space) -> tuple[dict, dict]:
    """space's TreeEdges by id, and first[u][v], the TreeEdge that leaves node
    u on the path to node v, found by a search over space.topology.edges."""
    edges = {e.id: e for e in space.topology.edges}
    first = {v: {} for v in space.topology.nodes}
    for target in space.topology.nodes:
        seen = {target}
        stack = [target]
        while stack:
            u = stack.pop()
            for e in edges.values():
                w = e.other(u)
                if u in (e.from_node, e.to_node) and w not in seen:
                    seen.add(w)
                    first[w][target] = e
                    stack.append(w)
    return edges, first


def tree_interp_ref(space, pd: tuple, qd: tuple, t: float) -> tuple:
    """The point at fraction t in (0, 1) from pd to qd != pd, placed by
    space._place: on one edge, t of the way; else t times the length of
    tree_routes_ref's route from pd, walked along it over tree_edges_ref's
    edges in TreeSpace._walk's arithmetic, clamped to pd's edge while on it
    and stopped at qd on qd's edge."""
    if pd[0] == qd[0]:
        return space._place(pd[0], pd[1] + t * (qd[1] - pd[1]))
    edges, first = tree_edges_ref(space)
    length, leg, u, nb = tree_routes_ref(space, pd, qd)[0]
    s = t * length
    edge = edges[pd[0]]
    if s <= leg:
        off = pd[1] - s if u == edge.from_node else pd[1] + s
        return space._place(edge.id, min(max(off, 0.0), edge.length))
    s -= leg
    while u != nb:
        edge = first[u][nb]
        if s < edge.length:
            return space._place(edge.id, s if u == edge.from_node else edge.length - s)
        s -= edge.length
        u = edge.other(u)
    edge = edges[qd[0]]
    if nb == edge.from_node:
        return space._place(edge.id, min(s, qd[1]))
    return space._place(edge.id, max(edge.length - s, qd[1]))


def tree_branch_ref(space, node: int, qd: tuple):
    # The first TreeEdge from the vertex node toward the point qd != node.
    edges, first = tree_edges_ref(space)
    e = edges[qd[0]]
    return first[node][e.to_node if e.from_node == node else e.from_node]


def tree_motion_ref(space, i: int, data: list[tuple]) -> MoveRef | None:
    """How point i of data moves until the next event; None if it stays."""
    edge_id, o = data[i]
    edge = tree_edges_ref(space)[0][edge_id]
    others = len(data) - 1
    if 0.0 < o < edge.length:
        v = edge.to_node
        ahead = [qd[1] > o if qd[0] == edge_id else tree_branch_ref(space, v, qd) is not edge
                 for qd in data]
        ahead[i] = False
        speed = 2 * sum(ahead) - others
        if speed == 0:
            return None
        if speed > 0:
            return MoveRef(edge, o, 1.0, speed, ahead)
        return MoveRef(edge, o, -1.0, -speed, [not a for a in ahead])
    v = edge.from_node if o == 0.0 else edge.to_node
    branches = [None if j == i else tree_branch_ref(space, v, qd) for j, qd in enumerate(data)]
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
            data[i] = space._place(edge.id, o)
        t += h
        hits = [pair for pair, tc in zip(pairs, meets) if tc == h]
        if hits:
            for i, j in hits:
                old, new = data[j], data[i]
                data = [new if d is old else d for d in data]
            return t, data
    raise GeometryError("the exact tree flow ran past its event bound")


class LineEmbedding(NamedTuple):
    """An isometric map of the line into a space, and its inverse.

    ``point(s)`` is the point at arclength s, for s in [-4.5, 4.5] at
    least, and ``arclength(p)`` reads a point of the image back, so the
    flow of a set on the image, and its retract, are the line's mapped over
    (each point's velocity is a sum of unit vectors along the image).
    """

    space: object
    point: object
    arclength: object


def _rotation(dim, rng):
    # A seeded orthonormal basis of R^dim, by Gram-Schmidt on Gaussian rows.
    rows = []
    while len(rows) < dim:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        for r in rows:
            dot = sum(a * b for a, b in zip(v, r))
            v = [a - dot * b for a, b in zip(v, r)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 1e-3:
            rows.append([a / norm for a in v])
    return rows


def euclidean_line(dim, rng):
    """The line s -> c + s u in R^dim, at a seeded unit direction u and offset c."""
    space = EuclideanSpace(dim)
    u = _rotation(dim, rng)[0]
    c = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    return LineEmbedding(space, lambda s: space.point([a + s * b for a, b in zip(c, u)]),
                         lambda p: sum((x - a) * b for x, a, b in zip(p.data, c, u)))


def hyperboloid_geodesic(dim, a, rng):
    """The geodesic gamma(s) = (cosh a cosh s, sinh s, sinh a cosh s, 0, ...), a from the apex.

    Its spatial part is then turned by a seeded rotation Q; <gamma(s),
    gamma(t)> = -cosh(s - t), so s is arclength, read back as asinh of the
    first spatial coordinate of Q^T x.
    """
    space = HyperboloidSpace(dim)
    q = _rotation(dim, rng)  # rows: the images of the spatial unit vectors

    def point(s):
        v = [math.sinh(s), math.sinh(a) * math.cosh(s)] + [0.0] * (dim - 2)
        xs = [sum(v[k] * q[k][i] for k in range(dim)) for i in range(dim)]
        return space.point([math.cosh(a) * math.cosh(s)] + xs)

    return LineEmbedding(space, point, lambda p: math.asinh(sum(x * c for x, c in zip(p.data[1:], q[0]))))


def path_tree_line(lengths=(1.5, 2.5, 2.0, 3.0)):
    """A path of edges 0, 1, ... of these lengths, every other one reversed, by arclength.

    Arclength s runs from -total/2 at node 0 to total/2 at the path's far
    end; edge i joins nodes i and i + 1, its offset measured from node i + 1
    where i is odd.
    """
    edges = [TreeEdge(i, i + 1, i, L) if i % 2 else TreeEdge(i, i, i + 1, L)
             for i, L in enumerate(lengths)]
    space = TreeSpace(TreeTopology(tuple(edges)))
    starts = [0.0]
    for L in lengths:
        starts.append(starts[-1] + L)
    half = 0.5 * starts[-1]

    def point(s):
        s += half
        i = max(k for k in range(len(lengths)) if starts[k] <= s)
        along = min(s - starts[i], lengths[i])
        return space.point((i, lengths[i] - along if i % 2 else along))

    def arclength(p):
        i, o = p.data
        return starts[i] + (lengths[i] - o if i % 2 else o) - half

    return LineEmbedding(space, point, arclength)
