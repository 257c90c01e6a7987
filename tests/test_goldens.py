"""Library values pinned bit for bit to goldens in tests/data/.

Every bound, both chains and the n=1 assembly are recorded as ``float.hex``
strings for eight random coordinate-convex functions under three inner
schemes, so a refactor of the evaluation or summation code cannot move a
single bit unnoticed. ``python tests/test_goldens.py`` rewrites the golden
file from the current code; do so only for a change meant to alter the
numbers, and say so.
"""

import json
from pathlib import Path

from hh_bounds import (NestedDiscrete, Quadrature, Rect, assemble_classic_terms,
                       boundary_bound, centerline_bound, classic_chain,
                       discrete_enclosure, partition_chain, positive_upper,
                       refined_chain)
from hh_bounds.convexity import random_coordinate_convex
from hh_bounds.oracle import reference_integral_2d

GOLDEN = Path(__file__).resolve().parent / "data" / "library_goldens.json"

RECT = Rect(-0.4, 1.3, -0.2, 1.1)
SCHEMES = {"nested16": NestedDiscrete(16), "nested3": NestedDiscrete(3),
           "quad": Quadrature(1e-9)}
NS = (1, 2, 5)


def records() -> dict[str, list[str]]:
    out = {}
    for seed in range(8):
        f = random_coordinate_convex(seed, RECT, 1 + seed % 4)
        oracle = reference_integral_2d(f, RECT, 256)
        out[f"seed={seed} oracle"] = [oracle.value, oracle.error_estimate]
        integral = oracle.value
        for label, scheme in SCHEMES.items():
            key = f"seed={seed} {label}"
            for n in NS:
                if isinstance(scheme, NestedDiscrete):
                    bp = discrete_enclosure(f, RECT, n, scheme.m)
                    out[f"{key} discrete_enclosure n={n}"] = [bp.lower, bp.upper]
                out[f"{key} centerline_bound n={n}"] = centerline_bound(f, RECT, n, scheme)
                out[f"{key} boundary_bound n={n}"] = boundary_bound(f, RECT, n, scheme)
                if f.positive:
                    out[f"{key} positive_upper n={n}"] = [positive_upper(f, RECT, n, scheme)]
                out[f"{key} partition_chain n={n}"] = partition_chain(
                    f, RECT, n, scheme, integral=integral).values
            out[f"{key} classic_chain"] = classic_chain(f, RECT, scheme,
                                                        integral=integral).values
            out[f"{key} refined_chain"] = refined_chain(f, RECT, scheme,
                                                        integral=integral).values
            out[f"{key} assemble_classic_terms"] = assemble_classic_terms(
                f, RECT, scheme, integral=integral)
    return {k: [float(v).hex() for v in vals] for k, vals in out.items()}


def test_library_values_match_goldens():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = records()
    assert list(got) == list(golden)
    mismatched = [k for k in golden if got[k] != golden[k]]
    assert not mismatched, mismatched[:5]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1) + "\n", encoding="utf-8")
