import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from subsetflow import (
    EuclideanSpace,
    HyperboloidSpace,
    TreeEdge,
    TreeSpace,
    TreeTopology,
)


@pytest.fixture(scope="session")
def line():
    return EuclideanSpace(1)


@pytest.fixture(scope="session")
def plane():
    return EuclideanSpace(2)


@pytest.fixture(scope="session")
def hyper():
    return HyperboloidSpace(2)


@pytest.fixture(scope="session")
def star_tree():
    # three edges hanging off node 0; lengths cover the worked examples
    return TreeSpace(TreeTopology((
        TreeEdge(0, 0, 1, 1.0),
        TreeEdge(1, 0, 2, 1.0),
        TreeEdge(2, 0, 3, 1.5),
    )))


@pytest.fixture(scope="session")
def path_tree():
    # a three-edge path with unequal lengths, no branching
    return TreeSpace(TreeTopology((
        TreeEdge(0, 0, 1, 2.0),
        TreeEdge(1, 1, 2, 0.5),
        TreeEdge(2, 2, 3, 1.0),
    )))


@pytest.fixture(scope="session")
def caterpillar_tree():
    # the large-n benchmark's tree: a six-node spine 0-1-2-3-4-5 with legs,
    # so leaves sit up to seven hops apart
    return TreeSpace(TreeTopology(tuple(TreeEdge(*e) for e in (
        (0, 0, 1, 0.8), (1, 1, 2, 0.6), (2, 2, 3, 1.1), (3, 3, 4, 0.7), (4, 4, 5, 0.9),
        (5, 0, 6, 1.2), (6, 0, 7, 0.5), (7, 1, 12, 1.0), (8, 2, 8, 0.75), (9, 3, 9, 1.3),
        (10, 5, 10, 0.65), (11, 5, 11, 0.85),
    ))))


@pytest.fixture(scope="session")
def all_spaces(line, plane, hyper, star_tree, path_tree):
    return {
        "euclidean-1": line,
        "euclidean-2": plane,
        "hyperboloid-2": hyper,
        "star-tree": star_tree,
        "path-tree": path_tree,
    }
