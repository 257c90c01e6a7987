import os
import time
from pathlib import Path

import numpy as np
import pytest

from hh_bounds import Fn1D, Fn2D
from hh_bounds.oracle import reference_integral_2d
from hh_bounds.verify import case_instance

# The CLI tests run ``python -m hh_bounds`` in a subprocess, which imports
# the package from this checkout's src/ as the tests themselves do.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

#: Seed for the shared random-instance corpus used by the acceptance suite.
CORPUS_SEED = 20170


def counting_fn1d(fn, positive=False):
    """Wrap a 1-D callback so evaluations (points, not calls) are counted."""
    count = {"n": 0}

    def ev(t):
        count["n"] += int(np.size(t))
        return fn(t)

    return Fn1D(eval=ev, positive=positive), count


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
