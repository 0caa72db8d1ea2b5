"""Workload definitions and seeded input generation.

Inputs come from the benchmark's own ``random.Random`` and are built only
through ``space.point`` and ``make_subset``, never through the program's
samplers, so a change to those samplers cannot change what is measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from refgeom import RefSpace, RefTree

BACKENDS = ("euclidean", "hyperboloid", "tree")

# The acceptance tests' star tree.
STAR_TREE = ((0, 0, 1, 1.0), (1, 0, 2, 1.0), (2, 0, 3, 1.5))
# Twelve edges: a six-node spine with legs, so leaves sit up to seven hops apart.
CATERPILLAR_TREE = (
    (0, 0, 1, 0.8), (1, 1, 2, 0.6), (2, 2, 3, 1.1), (3, 3, 4, 0.7), (4, 4, 5, 0.9),
    (5, 0, 6, 1.2), (6, 0, 7, 0.5), (7, 1, 12, 1.0), (8, 2, 8, 0.75), (9, 3, 9, 1.3),
    (10, 5, 10, 0.65), (11, 5, 11, 0.85),
)
# Five legs of equal length: every leg looks the same from the centre.
SYMMETRIC_STAR = tuple((i, 0, i + 1, 1.0) for i in range(5))

TWIN_EPSILONS = (1e-7, 1e-9)


@dataclass(frozen=True)
class Workload:
    """One round holds, for every backend and every n in ``ns``: ``retracts``
    timed retracts, one identity retract, ``scan_calls`` calls of
    ``lipschitz_scan`` with ``scan_pairs`` pairs each and one ``bound_suite``
    of ``suite_samples`` samples; plus ``line_sets`` untimed 1-D retracts per n, and (near-tie)
    the twin catalogue.  A run is ``max(1, round(seconds / round_s))``
    rounds, so its work is fixed by the seed and the run length.
    """

    name: str
    ns: tuple[int, ...]
    tree: tuple
    retracts: int
    scan_pairs: int
    suite_samples: int
    line_sets: int
    round_s: float
    scan_calls: int = 1
    perturbation: float = 0.05
    near_tie: bool = False


WORKLOADS = {
    "small-n": Workload("small-n", (2, 3), STAR_TREE, retracts=12, scan_pairs=8,
                        suite_samples=10, line_sets=2, round_s=2.3),
    "large-n": Workload("large-n", (6, 7, 8), CATERPILLAR_TREE, retracts=34, scan_pairs=2,
                        suite_samples=5, line_sets=2, round_s=30.0, scan_calls=3),
    "near-tie": Workload("near-tie", (3, 4, 5), SYMMETRIC_STAR, retracts=8, scan_pairs=4,
                         suite_samples=5, line_sets=2, round_s=5.0,
                         perturbation=1e-2, near_tie=True),
}


class Backends:
    """The workload's three spaces, each paired with its reference geometry."""

    def __init__(self, sf, tree_edges):
        self.sf = sf
        self.space = {
            "euclidean": sf.EuclideanSpace(2),
            "hyperboloid": sf.HyperboloidSpace(2),
            "tree": sf.TreeSpace(sf.TreeTopology(tuple(sf.TreeEdge(*e) for e in tree_edges))),
        }
        self.tree_edges = tree_edges
        self.ref = {
            "euclidean": RefSpace("euclidean"),
            "hyperboloid": RefSpace("hyperboloid"),
            "tree": RefSpace("tree", RefTree(tree_edges)),
        }
        self.line = sf.EuclideanSpace(1)

    def hyperboloid_point(self, r: float, theta: float):
        x1, x2 = math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)
        # the time coordinate from the spatial ones keeps <x,x> = -1 to rounding
        return self.space["hyperboloid"].point((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2))

    def random_point(self, kind: str, rng: random.Random):
        if kind == "euclidean":
            return self.space[kind].point((rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)))
        if kind == "hyperboloid":
            return self.hyperboloid_point(rng.uniform(0.0, 2.5), rng.uniform(0.0, 2.0 * math.pi))
        e = rng.choices(self.tree_edges, weights=[length for *_, length in self.tree_edges])[0]
        return self.space[kind].point((e[0], rng.uniform(0.0, e[3])))

    def subset(self, kind: str, points):
        return self.sf.make_subset(self.space[kind], points)

    def random_set(self, kind: str, n: int, rng: random.Random, min_sep: float = 1e-3):
        ref = self.ref[kind].distance
        pts = []
        while len(pts) < n:
            p = self.random_point(kind, rng)
            if all(ref(p.data, q.data) > min_sep for q in pts):
                pts.append(p)
        return self.subset(kind, pts)

    def line_set(self, n: int, rng: random.Random):
        xs = []
        while len(xs) < n:
            x = rng.uniform(-2.0, 2.0)
            if all(abs(x - y) > 1e-3 for y in xs):
                xs.append(x)
        return self.sf.make_subset(self.line, [self.line.point((x,)) for x in xs])

    # -- near-tie families -------------------------------------------------

    def _polygon(self, n, radius, centre, rot, scale_first=1.0):
        pts = []
        for k in range(n):
            r = radius * (scale_first if k == 0 else 1.0)
            a = rot + 2.0 * math.pi * k / n
            pts.append(self.space["euclidean"].point(
                (centre[0] + r * math.cos(a), centre[1] + r * math.sin(a))))
        return pts

    def near_tie_set(self, kind: str, n: int, family: int, rng: random.Random):
        """Seeded near-tie set; ``family`` cycles through the backend's kinds."""
        if kind == "euclidean":
            family %= 5
            centre = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            if family == 0:  # regular polygon: every side ties for the closest pair
                return self.subset(kind, self._polygon(n, rng.uniform(0.5, 2.0), centre,
                                                       rng.uniform(0.0, math.pi)))
            if family in (3, 4):  # a polygon at scale 1e-6 or 1e3
                scale = 1e-6 if family == 3 else 1e3
                return self.subset(kind, self._polygon(n, scale * rng.uniform(0.5, 2.0), centre,
                                                       rng.uniform(0.0, math.pi)))
            base = [p.data for p in self.random_set(kind, n, rng, min_sep=0.05).points]
            if family == 1:  # two points share a sort key's first coordinate
                i, j = rng.sample(range(n), 2)
                base[j] = (base[i][0], base[j][1])
            else:  # near-degenerate: one gap is 1e-6 of the spread
                spread = max(math.dist(p, q) for p in base for q in base)
                a = rng.uniform(0.0, 2.0 * math.pi)
                g = 1e-6 * spread
                base[1] = (base[0][0] + g * math.cos(a), base[0][1] + g * math.sin(a))
            return self.subset(kind, [self.space[kind].point(p) for p in base])
        if kind == "hyperboloid":
            family %= 2
            rot = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(6.0, 7.9)
            if family == 0:  # regular polygon 6 to 7.9 from the apex
                return self.subset(kind, [self.hyperboloid_point(r, rot + 2.0 * math.pi * k / n)
                                          for k in range(n)])
            return self.subset(kind, [self.hyperboloid_point(rng.uniform(6.0, 7.9),
                                                             rot + 2.0 * math.pi * k / n
                                                             + rng.uniform(-0.3, 0.3))
                                      for k in range(n)])
        legs = rng.sample(range(len(self.tree_edges)), n)
        offset = rng.uniform(0.2, 1.0)
        if family % 2 == 0:  # every point at the same depth on its own leg
            return self.subset(kind, [self.space[kind].point((leg, offset)) for leg in legs])
        # mirrored pairs at equal depths, the odd one out at the centre; the
        # depths keep one ratio so that the sets differ only in scale and legs
        pts = []
        for k in range(n // 2):
            depth = offset * (1.0 - 0.35 * k)
            pts += [self.space[kind].point((legs[2 * k], depth)),
                    self.space[kind].point((legs[2 * k + 1], depth))]
        if n % 2:
            pts.append(self.space[kind].point((legs[-1], 0.0)))
        return self.subset(kind, pts)

    def twin_catalogue(self):
        """Fixed ±ε twin pairs; they do not depend on the seed.

        Each entry is (label, kind, n, A−, A+).  Moving one point by ±ε
        crosses a tie in the numbering for every label but ``degenerate3``.
        """
        out = []
        for eps in TWIN_EPSILONS:
            def twin(label, kind, n, make):
                out.append((f"{label}@{eps:g}", kind, n,
                            self.subset(kind, make(-eps)), self.subset(kind, make(eps))))

            for n in (3, 4, 5):
                twin(f"polygon{n}", "euclidean", n,
                     lambda s, n=n: self._polygon(n, 1.0, (0.3, 0.1), 0.2, 1.0 + s))
            for label, scale in (("tiny3", 1e-6), ("huge3", 1e3)):
                twin(label, "euclidean", 3,
                     lambda s, scale=scale: self._polygon(3, scale, (5.0, -2.0), 0.7, 1.0 + s))
            sort_tie = [(0.0, 0.0), (0.1, 0.05), (1.3, 0.2), (1.3, 1.7), (2.9, 0.4)]
            twin("sortkey5", "euclidean", 5,
                 lambda s: [self.space["euclidean"].point(
                     (p[0] + s, p[1]) if k == 3 else p) for k, p in enumerate(sort_tie)])
            degenerate = [(0.0, 0.0), (1e-6, 0.0), (0.4, 0.9)]
            twin("degenerate3", "euclidean", 3,
                 lambda s: [self.space["euclidean"].point(
                     (p[0], p[1] + s) if k == 2 else p) for k, p in enumerate(degenerate)])
            for label, r, n in (("hyp-far3", 7.0, 3), ("hyp-far4", 7.0, 4), ("hyp-near3", 1.0, 3)):
                twin(label, "hyperboloid", n,
                     lambda s, r=r, n=n: [self.hyperboloid_point(r * (1.0 + s) if k == 0 else r,
                                                                 0.3 + 2.0 * math.pi * k / n)
                                          for k in range(n)])
            for n in (3, 4, 5):
                twin(f"star{n}", "tree", n,
                     lambda s, n=n: [self.space["tree"].point((k, 0.6 * (1.0 + s) if k == 0 else 0.6))
                                     for k in range(n)])
        return out
