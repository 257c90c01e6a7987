import dataclasses
import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hh_bounds.catalog
import hh_bounds.cli
import hh_bounds.expr
import hh_bounds.rect
import hh_bounds.verify
from hh_bounds import Fn2D, Rect
from hh_bounds.cli import main
from hh_bounds.oracle import reference_integral_2d
from hh_bounds.schemes import simpson_lines
from hh_bounds.verify import case_instance

#: Outputs recorded before a refactor of the code under them, to pin them byte
#: for byte. Where the package now adds a bound's weighted points in another
#: order, the golden stays the reference and each float may move by at most
#: 1e-15 times the sum of the magnitudes of the weighted points of the sums
#: it comes from; every other field stays identical.
DATA = Path(__file__).resolve().parent / "data"
#: A number in a command's text output.
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")
EPS = 1e-15


def _json_moves(got, want, bound, path=()) -> list:
    """The fields of the JSON values ``got`` and ``want`` that differ beyond
    ``bound(path, want)``, which is 0 where a field may not move."""
    if isinstance(want, dict):
        if list(got) != list(want):
            return [path]
        return [bad for k in want for bad in _json_moves(got[k], want[k], bound, path + (k,))]
    if isinstance(want, list):
        if len(got) != len(want):
            return [path]
        return [bad for i, (g, w) in enumerate(zip(got, want))
                for bad in _json_moves(g, w, bound, path + (i,))]
    if got == want and type(got) is type(want):
        return []
    if isinstance(want, float) and isinstance(got, float) and abs(got - want) <= bound(path, want):
        return []
    return [(path, got, want)]


def _text_moves(got: str, want: str, bound) -> list:
    """The numbers of the text ``got`` that differ from ``want``'s beyond
    ``bound(numbers, i, k)`` for the k-th number of line i, where
    ``numbers`` holds each line of ``want`` as its numbers. The rest of the
    text must be the same, but for the spaces that pad a table's numbers."""
    def skeleton(text):
        return [NUMBER.sub("#", line).split() for line in text.splitlines()]
    if skeleton(got) != skeleton(want):
        return ["text"]
    numbers = [[float(t) for t in NUMBER.findall(line)] for line in want.splitlines()]
    return [(i, k, new, old) for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()))
            for k, (new, old) in enumerate(zip(NUMBER.findall(g), NUMBER.findall(w)))
            if new != old and not abs(float(new) - float(old)) <= bound(numbers, i, k)]


def _chain_bound(payload: dict):
    """Moves of a chain payload of a nonnegative f, whose sums are then the
    sums of their magnitudes: a term by its own, a slack by both of its
    terms', the tolerance by 1e-9 times the largest."""
    def bound(path, value):
        if path[-1] == "tolerance":
            return 1e-9 * EPS * max(abs(t["value"]) for t in payload[path[0]]["terms"])
        if path[-1] == "slack":
            o = payload[path[0]]["orderings"][path[2]]
            return EPS * sum(abs(payload[path[0]]["terms"][t]["value"]) for t in (o["i"], o["j"]))
        return EPS * abs(value) if path[-1] == "value" else 0.0
    return bound


def _converge_row_bound(row: tuple, previous: tuple | None) -> list[float]:
    """The moves of the lower, upper, gap and ratio of a converge row
    (lower, upper, gap) of a nonnegative f: a bound by its own value, the
    gap by both bounds', the ratio by the relative moves of both gaps."""
    def gap_move(r):
        return EPS * (abs(r[0]) + abs(r[1]))
    ratio = 0.0 if previous is None else row[2] / previous[2] * (
        gap_move(row) / row[2] + gap_move(previous) / previous[2] + 4e-16)
    return [EPS * abs(row[0]), EPS * abs(row[1]), gap_move(row), ratio]


def _converge_bound(payload: dict):
    rows = [(r["lower"], r["upper"], r["gap"]) for r in payload["rows"]]
    bounds = [_converge_row_bound(r, rows[i - 1] if i else None) for i, r in enumerate(rows)]
    fields = ("lower", "upper", "gap", "ratio")

    def bound(path, value):
        if path[0] != "rows" or path[-1] not in fields:
            return 0.0
        return bounds[path[1]][fields.index(path[-1])]
    return bound


def _converge_text_bound(numbers, i, k):
    """A converge table row holds n, lower, upper, gap and the ratio, but
    for the first row; the bound of the header's numbers is 0."""
    rows = [line for line in numbers if len(line) >= 4 and line[0] >= 1]
    if numbers[i] not in rows or k == 0:
        return 0.0
    at = rows.index(numbers[i])
    previous = tuple(rows[at - 1][1:4]) if at else None
    return _converge_row_bound(tuple(numbers[i][1:4]), previous)[k - 1]


def _verify_magnitudes(cases: int, seed: int) -> dict[str, float]:
    """Per property, the largest sum of the magnitudes of the weighted points
    that any of its margins in ``verify --cases --seed`` comes from: each
    bound recomputed at |f|. A margin is at most that over its scale."""
    out = dict.fromkeys(hh_bounds.verify.PROPERTY_NAMES, 0.0)
    scheme = hh_bounds.verify.SCHEME

    def record(name, value):
        out[name] = max(out[name], value)

    for index in range(cases):
        r, f, _ = case_instance(seed, index)
        g = dataclasses.replace(f, eval=lambda x, y, ev=f.eval: np.abs(ev(x, y)))
        for n in hh_bounds.verify.N_VALUES:
            for m in hh_bounds.verify.M_VALUES:
                # |f| need not be convex: its sums, not an enclosure
                lower, _, upper = hh_bounds.rect.partition_chain(
                    g, r, n, hh_bounds.rect.NestedDiscrete(m), integral=0.0).values
                record("enclosure_soundness", max(lower, upper))
            record("centerline_inequality", sum(hh_bounds.rect.centerline_bound(g, r, n, scheme)))
            record("boundary_inequality", sum(hh_bounds.rect.boundary_bound(g, r, n, scheme)))
            if f.positive:
                record("positive_upper_bound", hh_bounds.rect.positive_upper(g, r, n, scheme))
        classic, refined = hh_bounds.rect.five_term_chains(g, r, scheme, integral=0.0)
        assembled = hh_bounds.rect.assemble_classic_terms(g, r, scheme, integral=0.0)
        record("chain_recapture", max(map(sum, zip(classic.values, assembled))))
        record("refined_tightens", max(map(sum, zip(classic.values, refined.values))))
    return {name: EPS * value for name, value in out.items()}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hh_bounds", *args],
                          capture_output=True, text=True)


class TestBounds:
    def test_xy_equality_json_schema(self):
        cp = run_cli("bounds", "--f", "x*y", "--rect", "0", "1", "0", "1",
                     "--n", "2", "--m", "2", "--output", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert list(payload) == ["function", "rect", "n", "m", "lower", "upper",
                                 "gap", "oracle", "oracle_error"]
        assert abs(payload["lower"] - 0.25) <= 1e-12
        assert abs(payload["upper"] - 0.25) <= 1e-12

    def test_constant(self):
        cp = run_cli("bounds", "--f", "1", "--rect", "0", "2", "0", "3",
                     "--n", "1", "--m", "1", "--output", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["lower"] == payload["upper"] == 6.0

    def test_sumsq_encloses_reference(self):
        cp = run_cli("bounds", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1",
                     "--n", "4", "--m", "16", "--output", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["lower"] <= 2.0 / 3.0 <= payload["upper"]
        assert payload["lower"] <= payload["oracle"] <= payload["upper"]

    def test_named_entry_matches_expression(self):
        a = run_cli("bounds", "--f", "sumsq", "--rect", "0", "1", "0", "1",
                    "--n", "2", "--m", "4", "--output", "json")
        b = run_cli("bounds", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1",
                    "--n", "2", "--m", "4", "--output", "json")
        pa, pb = json.loads(a.stdout), json.loads(b.stdout)
        assert pa["lower"] == pb["lower"] and pa["upper"] == pb["upper"]

    def test_csv_output(self):
        cp = run_cli("bounds", "--f", "x*y", "--rect", "0", "1", "0", "1",
                     "--n", "2", "--m", "2", "--output", "csv")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "function,rect,n,m,lower,upper,gap,oracle,oracle_error"
        assert len(lines) == 2

    def test_parse_error_exit_2(self):
        cp = run_cli("bounds", "--f", "x*", "--rect", "0", "1", "0", "1")
        assert cp.returncode == 2
        assert "expected" in cp.stderr

    def test_literal_too_large_for_a_float_exit_2(self, capsys):
        assert main(["bounds", "--f", "1/1e999 + x^2", "--rect", "0", "1", "0", "1"]) == 2
        assert capsys.readouterr() == (
            "", "expression error: at offset 2: expected a finite number, found '1e999'\n")

    def test_convexity_gate_exit_3(self):
        cp = run_cli("bounds", "--f", "0-x^2", "--rect", "0", "1", "0", "1")
        assert cp.returncode == 3
        assert "convexity" in cp.stderr.lower()

    def test_steep_exponential_passes_the_gate(self, capsys):
        # the worst slack is -524288, within its chord's roundoff allowance
        assert main(["bounds", "--f", "exp(50*x)", "--rect", "0", "1", "0", "1"]) == 0
        assert capsys.readouterr().out.startswith("function: exp(50*x)\n")

    @pytest.mark.parametrize("argv, what", [
        (["--n", "100000"], "an enclosure with n=100000, m=16 needs 640003400002 points"),
        (["--grid", "16384"], "an oracle grid of 16384 needs 268468225 points"),
    ])
    def test_oversized_request_exit_2(self, argv, what, capsys):
        start = time.perf_counter()
        assert main(["bounds", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {what}, more than the cap of 268435456\n"

    def test_n_below_one_exit_2(self, capsys):
        assert main(["bounds", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1", "--n", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: n must be >= 1, got 0\n"

    def test_gate_bypass(self):
        cp = run_cli("bounds", "--f", "0-x^2", "--rect", "0", "1", "0", "1",
                     "--skip-convexity-check", "--n", "1", "--m", "1",
                     "--output", "json")
        # bypassed gate: the run proceeds (the reported pair is not an
        # enclosure for a concave integrand, which is exactly why the gate
        # exists), or fails the bound-ordering check
        assert cp.returncode in (0, 3)

    def test_evaluation_error_exit_4(self):
        cp = run_cli("bounds", "--f", "1/x", "--rect", "0", "1", "0", "1")
        assert cp.returncode == 4
        assert cp.stderr == ("evaluation error: evaluation failed at (0.0, 0.0): "
                             "non-finite result at offsets 0..3\n")

    def test_expression_error_names_point_and_span(self, capsys):
        assert main(["bounds", "--f", "1/(x-0.5)^0.5+y", "--rect", "0", "1", "0", "1"]) == 4
        # the gate's sampler evaluates f first, so the point named is the
        # first of its points with x < 0.5
        assert capsys.readouterr() == ("", (
            "evaluation error: evaluation failed at (0.26593742808038556, 0.7294965609839984): "
            "non-finite result at offsets 3..13\n"))

    def test_pole_the_sampler_misses_is_a_gate_rejection(self, capsys):
        # no chord's points land on x = 0.5, and the chords across the pole
        # are not convex
        assert main(["bounds", "--f", "1/(x-0.5)+y", "--rect", "0", "1", "0", "1"]) == 3
        assert capsys.readouterr() == ("", (
            "convexity gate: convexity gate rejected the function: worst slack "
            "-12666.923477954 near (0.4941420985251105, 0.9718374166111121) "
            "lam=0.8892460695402885 axis=x [function '1/(x-0.5)+y']\n"))

    def test_usage_error_exit_2(self):
        cp = run_cli("bounds", "--f", "x*y")
        assert cp.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["--f", "x^2", "--rect", "-1e308", "1e308", "0", "1"],
        ["--f", "1", "--rect", "0", "1e200", "0", "1e200", "--n", "1", "--m", "1",
         "--output", "json"],
    ])
    def test_non_finite_rectangle_size_exit_2(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: rectangle widths and area must be finite")


@pytest.mark.parametrize("argv, err", [
    # the area underflows to 0; without the check, a ZeroDivisionError
    # traceback, and exit 0 with lower = upper = 0
    (["chain", "--f", "1e300+x^2", "--rect", "0", "1e-300", "0", "1e-300"],
     "error: rectangle area must be at least the smallest normal float"),
    (["bounds", "--f", "1e300+0*x", "--rect", "0", "1e-300", "0", "1e-300", "--n", "1",
      "--m", "1"], "error: rectangle area must be at least the smallest normal float"),
    # a normal area whose by-area weights are subnormal
    (["bounds", "--f", "1e300", "--rect", "0", "1.5e-154", "0", "1.5e-154", "--n", "256",
      "--output", "json"], "error: rectangle area 2.2500000000000005e-308 is too small"),
    # the oracle's weights are subnormal: without its check, exit 0 with a
    # mean term 8.4e-10 below the true mean, every ordering passing
    (["chain", "--f", "1e300+0*x", "--rect", "0", "1.5e-154", "0", "1.5e-154"],
     "error: rectangle area 2.2500000000000005e-308 is too small for the oracle"),
])
def test_tiny_rectangle_exit_2(argv, err):
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr.startswith(err)
    assert "Traceback" not in cp.stderr and len(cp.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, name", [
    (["bounds", "--f", "1e300+0*x", "--rect", "0", "1e5", "0", "1e5", "--n", "1", "--m", "1",
      "--output", "json"], "enclosure lower"),
    (["bounds", "--f", "1e308+0*x", "--rect", "0", "1", "0", "1"], "enclosure lower"),
    (["chain", "--f", "1e300+0*x", "--rect", "0", "1e5", "0", "1e5"], "oracle value"),
])
def test_overflowing_result_exit_4(argv, name, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"evaluation error: {name} is not finite")


def test_overflowing_oracle_message_is_stable():
    # f is finite everywhere and the oracle's sums overflow; the message
    # prints the value as Python does, not nan or np.float64(inf)
    cp = run_cli("chain", "--f", "1.7e308+0*x", "--rect", "0", "1", "0", "1",
                 "--skip-convexity-check")
    assert (cp.returncode, cp.stdout) == (4, "")
    assert cp.stderr == "evaluation error: oracle value is not finite: inf\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "--f", "x+y", "--rect", "1e308", "1.7e308", "0", "1", "--n", "1", "--m", "1"],
    ["chain", "--f", "x+y", "--rect", "5e307", "1.2e308", "0", "1"],
    ["bounds", "--f", "x", "--rect", "0", "1e308", "0", "1", "--n", "4", "--m", "16"],
])
def test_huge_corners_exit_2(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--skip-convexity-check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: rectangle corners must be at most half the largest float")


class TestChain:
    def test_xy_all_quarter(self):
        cp = run_cli("chain", "--f", "x*y", "--rect", "0", "1", "0", "1",
                     "--output", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        values = [t["value"] for t in payload["classic"]["terms"]]
        values += [t["value"] for t in payload["refined"]["terms"]]
        assert len(values) == 10
        assert all(abs(v - 0.25) <= 1e-12 for v in values)
        assert all(o["satisfied"] for o in payload["classic"]["orderings"])

    def test_sumsq_classic_terms(self):
        cp = run_cli("chain", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1",
                     "--scheme", "quadrature", "--output", "json")
        payload = json.loads(cp.stdout)
        values = [t["value"] for t in payload["classic"]["terms"]]
        expected = [0.5, 7 / 12, 2 / 3, 5 / 6, 1.0]
        assert all(abs(v - e) <= 1e-9 for v, e in zip(values, expected))

    def test_zero_function(self):
        cp = run_cli("chain", "--f", "0", "--rect", "0", "1", "0", "1",
                     "--output", "json")
        payload = json.loads(cp.stdout)
        assert all(t["value"] == 0.0 for t in payload["classic"]["terms"])

    def test_one_oracle_per_chain(self, monkeypatch, capsys):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return reference_integral_2d(*args, **kwargs)

        # rect holds its own reference, used when no integral is passed in
        monkeypatch.setattr(hh_bounds.cli, "reference_integral_2d", counting)
        monkeypatch.setattr(hh_bounds.rect, "reference_integral_2d", counting)
        code = main(["chain", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1",
                     "--grid", "64", "--output", "json"])
        assert code == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["classic"]["terms"][2]["value"] \
            == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_unreachable_quad_tol_exit_4(self, capsys):
        start = time.perf_counter()
        code = main(["chain", "--f", "exp(5*x+3*y)", "--rect", "-0.37", "1.1", "0.13", "1.9",
                     "--scheme", "quadrature", "--quad-tol", "1e-300"])
        assert code == 4
        assert time.perf_counter() - start < 10.0
        out, err = capsys.readouterr()
        assert out == ""
        # the first line resolved is the lower center line along x
        assert err == ("evaluation error: line along x at y=1.015: adaptive Simpson needs "
                       "more than 262144 subintervals for this tolerance\n")

    def test_quadrature_resolves_shared_lines_once(self, monkeypatch, capsys):
        lines = []

        def counting(fn, lo, hi, tol):
            lines.append(len(lo))
            return simpson_lines(fn, lo, hi, tol)

        monkeypatch.setattr(hh_bounds.rect, "simpson_lines", counting)
        code = main(["chain", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1",
                     "--scheme", "quadrature", "--grid", "64", "--output", "json"])
        assert code == 0
        # the two center lines, shared by the lower and the upper terms, and
        # the four boundary lines, refined together
        assert lines == [6]

    @pytest.mark.parametrize("scheme", ["nested", "quadrature"])
    def test_json_matches_golden(self, scheme, capsys):
        code = main(["chain", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1",
                     "--scheme", scheme, "--output", "json"])
        assert code == 0
        _assert_chain_golden(capsys.readouterr().out, f"chain_expsum_{scheme}.json", "exp(x+y)")

    def test_grid_json_matches_golden(self, capsys):
        # --grid reaches the chain only through the oracle value cmd_chain passes in
        code = main(["chain", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1",
                     "--grid", "64", "--output", "json"])
        assert code == 0
        _assert_chain_golden(capsys.readouterr().out, "chain_expsum_nested_grid64.json",
                             "exp(x+y)")


MULTITERM = ("--f", "exp(x+y)+0.5*abs(x-0.3)*y^2+x*y", "--rect", "-0.5", "1", "0", "1.5",
             "--m", "4", "--output", "json")


def _assert_nonnegative(src: str, rect: tuple) -> None:
    """Where f >= 0 every sum's weighted points have the sum's own magnitude."""
    r = Rect(*rect)
    assert hh_bounds.rect.spot_minimum(hh_bounds.catalog.resolve_function(src, r), r) > 0.0


def _assert_chain_golden(out: str, golden: str, src: str) -> None:
    want = json.loads((DATA / golden).read_text(encoding="utf-8"))
    _assert_nonnegative(src, want["rect"])
    assert _json_moves(json.loads(out), want, _chain_bound(want)) == []


def _bounds_moves(want: dict) -> dict[str, float]:
    """The moves of a bounds payload's fields of a nonnegative f; a field
    not named may not move. The oracle's estimate is |full - half| / 15 of
    two Simpson sums of f, the half-grid one at most oracle + 15 * oracle_error."""
    return {"lower": EPS * abs(want["lower"]),
            "upper": EPS * abs(want["upper"]),
            "gap": EPS * (abs(want["lower"]) + abs(want["upper"])),
            "oracle_error": EPS * (2.0 * want["oracle"] + 15.0 * want["oracle_error"]) / 15.0}


def _bounds_text_bound(want: str):
    """A bounds command's text or CSV output of a nonnegative f: each field
    moves as in its JSON output (:func:`_bounds_moves`), the rest stay. A
    field's numbers end their line: the CSV header names its row's last
    five, and a text line is named by its first word."""
    lines = want.splitlines()
    if lines[0].startswith("function,"):
        names = {1: lines[0].split(",")[-5:]}
    else:
        names = {i: ["oracle", "oracle_error"] if line.startswith("oracle") else line.split()[:1]
                 for i, line in enumerate(lines)
                 if line.split()[0] in ("lower", "upper", "gap", "oracle")}
    numbers = [[float(t) for t in NUMBER.findall(line)] for line in lines]
    moves = _bounds_moves({name: v for i, ns in names.items()
                           for name, v in zip(ns, numbers[i][-len(ns):])})

    def bound(numbers, i, k):
        ns = names.get(i, [])
        at = k - (len(numbers[i]) - len(ns))
        return moves.get(ns[at], 0.0) if at >= 0 else 0.0
    return bound


def _chain_text_bound(want: str):
    """A chain's text output of a nonnegative f: each tolerance, term and
    slack moves as its field of the JSON output may (:func:`_chain_bound`),
    every other number stays."""
    payload, paths = {}, {}
    for i, line in enumerate(want.splitlines()):
        nums = [float(t) for t in NUMBER.findall(line)]
        if " chain (tolerance " in line:
            label = line.split()[0]
            payload[label] = {"tolerance": nums[0], "terms": [], "orderings": []}
            paths[i] = {0: (label, "tolerance")}
        elif line.startswith("  term"):
            orderings = payload[label]["orderings"]
            paths[i] = {2: (label, "orderings", len(orderings), "slack")}
            orderings.append({"i": int(nums[0]), "j": int(nums[1]), "slack": nums[2]})
        elif line.startswith("  "):
            terms = payload[label]["terms"]
            paths[i] = {0: (label, "terms", len(terms), "value")}
            terms.append({"value": nums[0]})
    moves = _chain_bound(payload)

    def bound(numbers, i, k):
        path = paths.get(i, {}).get(k)
        return 0.0 if path is None else moves(path, numbers[i][k])
    return bound


@pytest.mark.parametrize("command, n, golden", [
    ("bounds", "8", "bounds_multiterm.json"),
    ("converge", "1:16", "converge_multiterm.json"),
])
def test_multiterm_json_matches_golden(command, n, golden, capsys):
    assert main([command, *MULTITERM, "--n", n]) == 0
    want = json.loads((DATA / golden).read_text(encoding="utf-8"))
    _assert_nonnegative(MULTITERM[1], want["rect"])
    bound = (_converge_bound(want) if command == "converge" else
             lambda path, value: _bounds_moves(want).get(path[-1], 0.0))
    assert _json_moves(json.loads(capsys.readouterr().out), want, bound) == []


@pytest.mark.parametrize("tol, golden", [
    (None, "chain_multiterm_quadrature.json"),
    ("1e-12", "chain_multiterm_quadrature_tol1e-12.json"),
])
def test_multiterm_quadrature_chain_matches_golden(tol, golden, capsys):
    extra = [] if tol is None else ["--quad-tol", tol]
    assert main(["chain", *MULTITERM, "--scheme", "quadrature", *extra]) == 0
    _assert_chain_golden(capsys.readouterr().out, golden, MULTITERM[1])


@pytest.mark.parametrize("argv, golden", [
    (["chain", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1", "--output", "csv"],
     "chain_expsum_nested.csv"),
    # a concave function past the gate: every ordering is reported violated
    (["chain", "--f", "0-x^2-y^2", "--rect", "0", "1", "0", "1", "--skip-convexity-check",
      "--grid", "64"], "chain_concave_human.txt"),
    (["converge", *MULTITERM, "--n", "1:16", "--output", "human"],
     "converge_multiterm_human.txt"),
    (["converge", *MULTITERM, "--n", "4", "--output", "csv"], "converge_multiterm_n4.csv"),
    (["verify", "--cases", "20", "--seed", "1", "--output", "csv"], "verify_c20_seed1.csv"),
    (["verify", "--cases", "20", "--seed", "1"], "verify_c20_seed1_human.txt"),
    (["chain", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1"], "chain_expsum_nested_human.txt"),
    # the diagnostic scheme says so in its label
    (["chain", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1", "--scheme", "quadrature"],
     "chain_expsum_quadrature_human.txt"),
    (["bounds", *MULTITERM, "--n", "8", "--output", "human"], "bounds_multiterm_human.txt"),
    (["bounds", *MULTITERM, "--n", "8", "--output", "csv"], "bounds_multiterm_n8.csv"),
])
def test_text_output_matches_golden(argv, golden, capsysbinary):
    assert main(argv) == 0
    out = capsysbinary.readouterr().out.decode("utf-8")
    want = (DATA / golden).read_text(encoding="utf-8")
    if argv[0] == "verify":
        moves = _verify_magnitudes(20, 1)
        names = [line.split(",")[0].split()[0] if line.strip() else "" for line in
                 want.splitlines()]
        bound = lambda numbers, i, k: moves.get(names[i], 0.0) if k == 2 else 0.0  # noqa: E731
    elif argv[0] == "converge":
        _assert_nonnegative(MULTITERM[1], (-0.5, 1.0, 0.0, 1.5))
        bound = _converge_text_bound
    elif argv[0] == "bounds":
        _assert_nonnegative(MULTITERM[1], (-0.5, 1.0, 0.0, 1.5))
        bound = _bounds_text_bound(want)
    elif "--skip-convexity-check" in argv:
        bound = lambda numbers, i, k: 0.0  # noqa: E731
    elif "--output" not in argv:
        _assert_nonnegative("exp(x+y)", (0.0, 1.0, 0.0, 1.0))
        bound = _chain_text_bound(want)
    else:
        _assert_nonnegative("exp(x+y)", (0.0, 1.0, 0.0, 1.0))
        bound = lambda numbers, i, k: EPS * abs(numbers[i][k]) if i else 0.0  # noqa: E731
    assert _text_moves(out, want, bound) == []


class TestConverge:
    def test_expsum_ratios_approach_quarter(self):
        cp = run_cli("converge", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1",
                     "--n", "1:64", "--m", "16", "--output", "json")
        assert cp.returncode == 0, cp.stderr
        rows = json.loads(cp.stdout)["rows"]
        assert [r["n"] for r in rows] == [1, 2, 4, 8, 16, 32, 64]
        assert 0.2 <= rows[-1]["ratio"] <= 0.3

    def test_constant_zero_gap(self):
        cp = run_cli("converge", "--f", "const1", "--rect", "0", "1", "0", "1",
                     "--n", "1:8", "--output", "csv")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "n,lower,upper,gap,ratio"
        for line in lines[1:]:
            assert line.split(",")[3] == "0"

    def test_xy_zero_gap(self):
        cp = run_cli("converge", "--f", "x*y", "--rect", "0", "1", "0", "1",
                     "--n", "1:4", "--output", "json")
        rows = json.loads(cp.stdout)["rows"]
        assert all(r["gap"] == 0.0 for r in rows)

    def test_bad_range_exit_2(self):
        cp = run_cli("converge", "--f", "x*y", "--rect", "0", "1", "0", "1",
                     "--n", "8:2")
        assert cp.returncode == 2

    @pytest.mark.parametrize("n, err", [("1:2:3", "--n expects an integer or LO:HI, got '1:2:3'"),
                                        ("a", "--n expects an integer or LO:HI, got 'a'")])
    def test_malformed_range_exit_2(self, n, err, capsys):
        assert main(["converge", "--f", "x*y", "--rect", "0", "1", "0", "1", "--n", n]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_oversized_sweep_fails_before_its_first_enclosure(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(hh_bounds.cli, "discrete_enclosure",
                            lambda *args: calls.append(args))
        assert main(["converge", "--f", "x*y", "--rect", "0", "1", "0", "1",
                     "--n", "1:1000000"]) == 2
        assert calls == []
        assert "n=524288, m=16 needs" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes(self):
        cp = run_cli("verify", "--cases", "5", "--seed", "3", "--output", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["all_pass"] is True
        names = [p["name"] for p in payload["properties"]]
        assert names == ["enclosure_soundness", "centerline_inequality",
                         "boundary_inequality", "positive_upper_bound",
                         "chain_recapture", "refined_tightens"]

    def test_deterministic_output(self):
        a = run_cli("verify", "--cases", "8", "--seed", "11", "--output", "json")
        b = run_cli("verify", "--cases", "8", "--seed", "11", "--output", "json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_json_matches_golden(self, seed, capsysbinary):
        assert main(["verify", "--cases", "60", "--seed", str(seed), "--output", "json"]) == 0
        want = json.loads((DATA / f"verify_c60_seed{seed}.json").read_text(encoding="utf-8"))
        moves = _verify_magnitudes(60, seed)

        def bound(path, value):
            if path[0] == "properties" and path[-1] == "worst_slack":
                return moves[want["properties"][path[1]]["name"]]
            return 0.0
        assert _json_moves(json.loads(capsysbinary.readouterr().out), want, bound) == []

    def test_gate_rejection_exit_3(self, monkeypatch, capsys):
        concave = Fn2D(eval=lambda x, y: -(x * x) + 0.0 * y)
        monkeypatch.setattr(hh_bounds.verify, "random_coordinate_convex",
                            lambda seed, r, atoms: concave)
        assert main(["verify", "--cases", "1", "--seed", "7"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("convexity gate:")
        assert "case=0" in err

    def test_violation_exit_1_names_the_first_failure(self, monkeypatch, capsys):
        # an oracle one above the integral lies above every upper bound
        real = hh_bounds.verify.reference_integral_2d

        def shifted(*args):
            result = real(*args)
            return dataclasses.replace(result, value=result.value + 1.0)

        monkeypatch.setattr(hh_bounds.verify, "reference_integral_2d", shifted)
        assert main(["verify", "--cases", "2", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        context = case_instance(1, 0)[2]
        assert lines[1].startswith("  enclosure_soundness      checked=12    violations=12 ")
        assert lines[2] == f"    first failure: {context} n=1 m=1"
        assert lines[-1] == "PROPERTY VIOLATIONS FOUND"

    def test_zero_cases_exit_2(self):
        cp = run_cli("verify", "--cases", "0")
        assert cp.returncode == 2


_TOO_DEEP = ("expression error: at offset {}: "
             "expected an expression at most 100 levels deep, found {}")


@pytest.mark.parametrize("argv, err", [
    (["bounds", "--f", "(" * 200 + "x" + ")" * 200, "--rect", "0", "1", "0", "1"],
     _TOO_DEEP.format(100, "'('")),
    (["bounds", "--f=" + "-" * 1000 + "x", "--rect", "0", "1", "0", "1"],
     _TOO_DEEP.format(900, "'-'")),
    (["bounds", "--f", "+".join(["x"] * 3000), "--rect", "0", "1", "0", "1"],
     _TOO_DEEP.format(199, "'+'")),
    (["verify", "--seed", "-1"], "error: seed must be >= 0, got -1"),
])
def test_too_deep_or_negative_seed_exit_2_before_evaluating(argv, err, monkeypatch, capsys):
    monkeypatch.setattr(hh_bounds.catalog, "eval_ast", None)
    monkeypatch.setattr(hh_bounds.verify, "random_coordinate_convex", None)
    assert main(argv) == 2
    out, stderr = capsys.readouterr()
    assert out == ""
    assert stderr == err + "\n"


@pytest.mark.parametrize("command", ["bounds", "chain", "converge"])
@pytest.mark.parametrize("flag", [["--gate-samples", "100"], ["--gate-tol", "1e-3"],
                                  ["--seed", "1"]])
def test_removed_gate_flags_exit_2(command, flag, capsys):
    argv = [command, "--f", "x*y", "--rect", "0", "1", "0", "1", *flag]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--n", "1"] if command == "converge" else []))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "bounds" in cp.stdout and "verify" in cp.stdout


def test_negative_rect_coordinates():
    cp = run_cli("bounds", "--f", "x^2+y^2", "--rect", "-1", "1", "-1", "1",
                 "--n", "2", "--m", "4", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["lower"] <= 8.0 / 3.0 <= payload["upper"]


def test_negative_rect_endpoints_in_exponent_notation():
    cp = run_cli("bounds", "--f", "x*y", "--rect", "-1.5e-05", "1", "0", "1",
                 "--output", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["rect"] == [-1.5e-05, 1.0, 0.0, 1.0]
    cp = run_cli("bounds", "--f", "x*y", "--rect", "-0.5", "1", "0", "1",
                 "--output", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["rect"] == [-0.5, 1.0, 0.0, 1.0]


@pytest.mark.parametrize("src", ["-x+y^2", "-(x-1)+y^2", "-2*x+y^2"])
def test_expression_with_a_leading_minus_is_a_value(src, capsys):
    # an argument that starts with a single "-" and is no option is a value
    rect = ["--rect", "0", "1", "0", "1", "--output", "json"]
    assert main(["bounds", "--f", src, *rect]) == 0
    spaced = capsys.readouterr()
    assert main(["bounds", f"--f={src}", *rect]) == 0
    assert spaced == capsys.readouterr()
    assert json.loads(spaced.out)["function"] == src


def test_help_option_wins_over_a_leading_minus_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hh-bounds bounds")


def test_cli_evaluates_expressions_through_eval_ast(monkeypatch, capsys):
    # a tracer counts the CLI's evaluations by putting a wrapper in place of
    # eval_ast under every name the package holds it by
    assert hh_bounds.catalog.eval_ast is hh_bounds.expr.eval_ast
    original, points = hh_bounds.expr.eval_ast, []

    def counting(tree, x, y):
        out = original(tree, x, y)
        points.append(np.size(out))
        return out

    monkeypatch.setattr(hh_bounds.expr, "eval_ast", counting)
    monkeypatch.setattr(hh_bounds.catalog, "eval_ast", counting)
    assert main(["bounds", "--f", "x^2+y^2", "--rect", "0", "1", "0", "1"]) == 0
    assert sum(points) > 0


def _record_compiles(monkeypatch) -> list:
    """The (tree, mode) of each program ``expr`` compiles from now on; the
    trees are kept, so no two of them share an id."""
    compiled, compile_ = [], hh_bounds.expr._compile
    monkeypatch.setattr(hh_bounds.expr, "_compile",
                        lambda node, strict: compiled.append((node, strict)) or compile_(node, strict))
    return compiled


@pytest.mark.parametrize("argv", [
    ["bounds"],
    ["chain", "--scheme", "nested"],
    ["chain", "--scheme", "quadrature"],
    ["converge", "--n", "1:64"],
], ids=["bounds", "chain-nested", "chain-quadrature", "converge"])
@pytest.mark.parametrize("src, trees", [("x^2*exp(y)+x*y", 5), ("exp(x+y)", 1)])
def test_a_successful_run_compiles_no_strict_program(argv, src, trees, monkeypatch, capsys):
    # a separable tree's factors are compiled too: x^2, exp(y), x and y
    compiled = _record_compiles(monkeypatch)
    assert main([argv[0], "--f", src, "--rect", "0", "1", "0", "1", *argv[1:]]) == 0
    assert capsys.readouterr().out
    assert {strict for _, strict in compiled} == {False}
    assert len({id(tree) for tree, _ in compiled}) == trees


@pytest.mark.parametrize("argv, err", [
    (["bounds"], "(0.875, 0.0078125)"),
    (["chain"], "(0.80078125, 0.0)"),
    (["converge", "--n", "1:64"], "(0.8125, 0.0)"),
])
def test_a_failing_run_compiles_each_strict_program_once(argv, err, monkeypatch, capsys):
    compiled = _record_compiles(monkeypatch)
    assert main([argv[0], "--f", "(0.8-x)^0.5+y", "--rect", "0", "1", "0", "1",
                 "--skip-convexity-check", *argv[1:]]) == 4
    assert capsys.readouterr() == ("", f"evaluation error: evaluation failed at {err}: "
                                       "non-finite result at offsets 1..11\n")
    strict = [id(tree) for tree, mode in compiled if mode]
    assert strict and len(strict) == len(set(strict))
    assert set(strict) <= {id(tree) for tree, mode in compiled if mode is False}


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "3"],
    ["chain", "--scheme", "quadrature"],
    ["converge", "--n", "1:4"],
    ["bounds", "--skip-convexity-check"],
])
def test_cli_makes_no_positivity_spot_check(argv, monkeypatch, capsys):
    # no command reads a parsed function's positive flag, so none samples
    # the spot grid for it
    original, calls = hh_bounds.rect.spot_minimum, []

    def counting(f, r):
        calls.append(r)
        return original(f, r)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "hh_bounds"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    assert hh_bounds.rect.spot_minimum is counting
    assert main([*argv, "--f", "exp(x+y)+x^2", "--rect", "0", "1", "0", "1"]) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_bounds_and_converge_byte_stable():
    args_b = ("bounds", "--f", "absdist", "--rect", "0", "1", "0", "1",
              "--n", "3", "--m", "2", "--output", "csv")
    args_c = ("converge", "--f", "expsum", "--rect", "0", "1", "0", "1",
              "--n", "1:8", "--m", "4", "--output", "csv")
    for args in (args_b, args_c):
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


@pytest.mark.parametrize("argv", [
    ["bounds", *MULTITERM, "--n", "8"],
    ["chain", *MULTITERM],
    ["converge", *MULTITERM, "--n", "1:16"],
    ["verify", "--cases", "20", "--seed", "1", "--output", "json"],
], ids=["bounds", "chain", "converge", "verify"])
def test_cli_puts_the_callers_ufunc_buffer_back(argv, capsys):
    # row blocks run with a buffer of at most one line, set and put back inside
    caller = np.setbufsize(4096)
    try:
        assert main(argv) == 0
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(caller)
