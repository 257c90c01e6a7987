import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hh_bounds import Fn1D, Fn2D, Partition1D
from hh_bounds.oracle import reference_integral_2d
from hh_bounds.verify import case_instance

# The CLI tests run ``python -m hh_bounds`` in a subprocess, which imports
# the package from this checkout's src/ as the tests themselves do, and turns
# every warning into an error there as pytest does here.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"

# ``--hypothesis-profile=ci`` draws every property test's examples from a
# fixed seed, so a failure reproduces on every run, and prints the blob that
# replays it with ``@reproduce_failure``.
settings.register_profile("ci", derandomize=True, print_blob=True)

#: Seed for the shared random-instance corpus used by the acceptance suite.
CORPUS_SEED = 20170


def counting_fn1d(fn, positive=False):
    """Wrap a 1-D callback so evaluations (points, not calls) are counted."""
    count = {"n": 0}

    def ev(t):
        count["n"] += int(np.size(t))
        return fn(t)

    return Fn1D(eval=ev, positive=positive), count


def _node_built(k: int, n: int) -> tuple[int, int]:
    """Node k of a side cut into n cells, by how it is built: k/n with the
    powers of two that k and n share divided out, as node k of n cells is
    node 2k of 2n cells, and the ends pinned to 0/1 and 1/1. Odd factors
    stay, as the bits of node 1 of 2 cells and node 3 of 6 need not be equal."""
    if k in (0, n):
        return k // n, 1
    while k % 2 == n % 2 == 0:
        k, n = k // 2, n // 2
    return k, n


def lattice_side(iv, count: int) -> tuple[list, list]:
    """The nodes and the midpoints of ``iv`` cut into ``count`` cells, each
    as (how it is built, the hex of its bits): a node by its reduced k/n
    twice, a midpoint by the reduced ends of its cell."""
    part = Partition1D(iv, count)
    ends = [_node_built(k, count) for k in range(count + 1)]
    return ([((e, e), x.hex()) for e, x in zip(ends, part.nodes().tolist())],
            [((lo, hi), x.hex()) for lo, hi, x in zip(ends, ends[1:],
                                                     part.midpoints().tolist())])


def lattice_grid(xs, ys) -> set:
    """The points of ``xs`` by ``ys``, lists of :func:`lattice_side`, each
    as ((how x is built, how y is built), (x bits, y bits))."""
    return {((bx, by), (x, y)) for bx, x in xs for by, y in ys}


def assert_each_point_once(seen: list, declared: set, where=None) -> None:
    """``seen``, the (x bits, y bits) of the points of one call, are the
    points of ``declared``, a set of :func:`lattice_grid`'s, each point by
    how it is built once: as many as there are ways, with the same bits.
    ``where`` names the call in a failure."""
    bits = dict(declared)
    assert len(bits) == len(declared), where  # how a point is built fixes its bits
    assert len(seen) == len(bits), where
    assert set(seen) == set(bits.values()), where


def counting_fn2d(fn, positive=False):
    count = {"n": 0}

    def ev(x, y):
        out = fn(x, y)
        count["n"] += int(np.size(out))
        return out

    return Fn2D(eval=ev, positive=positive), count


@pytest.fixture(scope="session")
def corpus_200():
    """200 coordinate-convex instances with precomputed oracle integrals.

    Returns (instances, build_seconds); instances are tuples of
    (rect, fn, oracle, replay-context).
    """
    start = time.perf_counter()
    instances = []
    for i in range(200):
        rect, fn, context = case_instance(CORPUS_SEED, i)
        oracle = reference_integral_2d(fn, rect, 1024)
        instances.append((rect, fn, oracle, context))
    return instances, time.perf_counter() - start
