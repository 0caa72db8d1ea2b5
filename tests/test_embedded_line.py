"""Isometric embeddings of the line as exact oracles for the retract.

A line in R^d, a geodesic of the hyperboloid and a path tree are each
isometric to the line, and the flow of a set on one stays on it: each
point's velocity is a sum of unit vectors along it.  So the flow, its first
collision and the retract are the line's, mapped over, and the line's
retract is exact (``EuclideanSpace._first_collision``).  The maps are
``oracles.LineEmbedding``s, and every error is measured in arclength,
through the map's inverse: far from the apex a hyperboloid distance cancels
(ROADMAP item 3), and arclength does not.

Collinear sets have measure zero, so these rows check the retract on one
family of sets; they are not a sample of its inputs.  ``src/`` must not
branch on collinearity, or the rows would pass while the map next to them
stays wrong.
"""

import math
import random
import sys

import pytest

from subsetflow import EuclideanSpace, lipschitz_constant_bound, make_subset, retract
from oracles import euclidean_line, hyperboloid_geodesic, path_tree_line

EMBEDDINGS = {
    "euclidean-2": lambda rng: euclidean_line(2, rng),
    "euclidean-3": lambda rng: euclidean_line(3, rng),
    **{f"hyperboloid-{dim}-a{a:g}": (lambda rng, dim=dim, a=a: hyperboloid_geodesic(dim, a, rng))
       for dim in (2, 3) for a in (0.0, 1.5, 4.0)},
    "path-tree": lambda rng: path_tree_line(),
}


def _retract_on(emb, ss):
    # The retract of the set at arclengths ss on emb's image, read back as
    # sorted arclengths.
    out = retract(make_subset(emb.space, [emb.point(s) for s in ss]), len(ss)).output
    return sorted(emb.arclength(p) for p in out.points)


def _line_retract(ss):
    # The line's exact retract of the set ss, as sorted floats.
    line = EuclideanSpace(1)
    out = retract(make_subset(line, [line.point((s,)) for s in ss]), len(ss)).output
    return sorted(p.data[0] for p in out.points)


def _error(got, want):
    # The worst arclength error of got against want, inf where their
    # cardinalities differ.
    return max(abs(a - b) for a, b in zip(got, want)) if len(got) == len(want) else math.inf


def _hausdorff(xs, ys):
    # The Hausdorff distance of two finite sets of arclengths.
    return max(max(min(abs(x - y) for y in ys) for x in xs),
               max(min(abs(x - y) for x in xs) for y in ys))


def _worst_error(emb, rng, ns, sets, allowed):
    # The largest error over allowed(delta) of the retract of sets random
    # sets at each n against the line's, each set drawn in [-n/2, n/2].
    worst = 0.0
    for n in ns:
        for _ in range(sets):
            ss = sorted(rng.uniform(-0.5 * n, 0.5 * n) for _ in range(n))
            delta = min(b - a for a, b in zip(ss, ss[1:]))
            worst = max(worst, _error(_retract_on(emb, ss), _line_retract(ss)) / allowed(delta))
    return worst


# At a = 4 a set of 8 reaches about 7.3 from the apex, where today's md
# cancels (ROADMAP item 3): the worst error at HEAD, against 1e-9 delta.
GENERIC_RED = {"hyperboloid-2-a4": "4.3e-9 delta", "hyperboloid-3-a4": "6.1e-9 delta"}


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=[pytest.mark.xfail(strict=True, reason=f"ROADMAP item 3: {GENERIC_RED[key]}")]
                 if key in GENERIC_RED else []) for key in EMBEDDINGS])
def test_an_embedded_line_retracts_as_the_line(key):
    # Generic sets at n = 3..8: the same cardinality as the line's retract,
    # and each point within 1e-9 delta of its image.
    rng = random.Random(f"embedded:{key}")
    worst = _worst_error(EMBEDDINGS[key](rng), rng, range(3, 9), 8, lambda delta: 1e-9 * delta)
    assert worst <= 1.0, worst


# The line's twins: {0, 1, 3, 5, 6, 7 +- eps}, centred on 0.  At 7 + eps the
# gaps 0-1 and 5-6 close first, together, and leave 4 points; at 7 - eps the
# gap 6-7 alone, and leaves 5.  The line's ratio is 1.25.
TWIN_BASE = (0.0, 1.0, 3.0, 5.0, 6.0)

# The rows that break the bound or the cardinality at HEAD.  A march's
# numbering decides which gap closes first where the line's exact flow ties
# two (ROADMAP item 1, defect A); the tree's float event loop leaves the
# pair 5-6 two ulps apart instead of met (item 21).
TWINS_RED = {
    ("euclidean-2", 1e-6): "ROADMAP item 1: 3 and 5 points, ratio 1.25",
    ("euclidean-2", 1e-9): "ROADMAP item 1: 3 and 3 points, ratio 1.0",
    ("euclidean-3", 1e-9): "ROADMAP item 1: 3 and 3 points, ratio 1.0",
    ("hyperboloid-2-a0", 1e-6): "ROADMAP item 1: ratio 1,220",
    ("hyperboloid-2-a0", 1e-9): "ROADMAP item 1: ratio 1.22e6",
    ("hyperboloid-2-a1.5", 1e-6): "ROADMAP item 1: 3 and 5 points, ratio 1,953",
    ("hyperboloid-2-a1.5", 1e-9): "ROADMAP item 1: 3 and 4 points, ratio 1.95e6",
    ("hyperboloid-2-a4", 1e-6): "ROADMAP item 1: ratio 1,952",
    ("hyperboloid-2-a4", 1e-9): "ROADMAP item 1: 3 and 4 points, ratio 1.95e6",
    ("hyperboloid-3-a0", 1e-6): "ROADMAP item 1: ratio 976",
    ("hyperboloid-3-a0", 1e-9): "ROADMAP item 1: ratio 9.8e5",
    ("hyperboloid-3-a1.5", 1e-6): "ROADMAP item 1: ratio 1,952",
    ("hyperboloid-3-a1.5", 1e-9): "ROADMAP item 1: 3 and 4 points, ratio 1.95e6",
    ("hyperboloid-3-a4", 1e-6): "ROADMAP item 1: ratio 1,952",
    ("hyperboloid-3-a4", 1e-9): "ROADMAP item 1: 3 and 4 points, ratio 1.95e6",
    ("path-tree", 1e-9): "ROADMAP item 21: 5 and 5 points, two of them 4.4e-16 apart",
}


def _twin_rows():
    rows = []
    for key in EMBEDDINGS:
        for eps in (1e-6, 1e-9):
            red = TWINS_RED.get((key, eps))
            marks = [pytest.mark.xfail(strict=True, reason=red)] if red else []
            rows.append(pytest.param(key, eps, marks=marks, id=f"{key}-{eps:g}"))
    return rows


@pytest.mark.parametrize("key, eps", _twin_rows())
def test_the_line_twins_keep_the_bound_embedded(key, eps):
    emb = EMBEDDINGS[key](random.Random(f"twins:{key}"))
    lo, hi = ([s - 3.5 for s in TWIN_BASE] + [3.5 + sign * eps] for sign in (1.0, -1.0))
    outs = [_retract_on(emb, ss) for ss in (lo, hi)]
    assert [len(out) for out in outs] == [len(_line_retract(ss)) for ss in (lo, hi)] == [4, 5]
    ratio = _hausdorff(*outs) / _hausdorff(lo, hi)
    assert ratio <= lipschitz_constant_bound(6), ratio


# Far from the apex a coordinate resolves an arclength of about eps sinh a,
# so a faithful retract lies within FAR_MULTIPLE eps sinh(a) of the line's,
# beyond the 1e-9 delta of the rows near the apex, on 10 sets at each n =
# 3..6.  Today's md cancels two terms of size x0^2 d^2 (ROADMAP item 3);
# the reasons give the worst error at HEAD, in delta, against that
# allowance.
FAR_MULTIPLE = 1e4
FAR_RED = {8.0: "3.2e-7 against 3.3e-9",
           12.0: "4.4e-4 against 1.8e-7",
           16.0: "148 against 9.9e-6, and 1 of 40 cardinalities differs",
           18.0: "123 against 7.3e-5, and 14 of 40 cardinalities differ"}


@pytest.mark.parametrize("a", [
    pytest.param(a, marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item 3: {FAR_RED.get(a)}"))
    for a in (8.0, 12.0, 16.0, 18.0)])
def test_a_far_geodesic_retracts_as_the_line(a):
    rng = random.Random(f"far-geodesic:{a}")
    allowance = FAR_MULTIPLE * sys.float_info.epsilon * math.sinh(a)
    worst = _worst_error(hyperboloid_geodesic(2, a, rng), rng, range(3, 7), 10,
                         lambda delta: 1e-9 * delta + allowance)
    assert worst <= 1.0, worst
