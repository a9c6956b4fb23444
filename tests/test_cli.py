"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropjac.split_jacobian as split_jacobian
from oracles import (
    MAX_KERNEL_GCD,
    cover_corpus,
    divisor_pullback_kernel,
    gcd_divisor_texts,
    matrix_isogeny_kernel_points,
    over_lcm_is_d_torsion,
    row_walk_cover,
    split_covers,
    wide_kernel_covers,
)
from test_split_jacobian import BROKEN_FLAGS
from tropjac.cli import _KERNELS, _json, _render, _split_dict, parse_cover, run_command
from tropjac.cover_analysis import CyclicKernel, TorsionDivisor, pullback_kernel, pullback_kernel_group
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    MetricGraph,
    ThetaCover,
    ThetaCurve,
    target_length,
)
from tropjac.errors import NumberTooLarge, ParseError, ValidationError
from tropjac.exact_lattice import Matrix, quotient_group
from tropjac.split_jacobian import SplitKernel, SplitReport, strong_optimality_gap, verify_split_package
from tropjac.tav import _box_points, _listed_points, subgroup_generated

import pytest

DEGREE_TWO = '{"kind": "theta", "lengths": ["1", "1", "1"], "windings": [1, 1, 1], "dilations": [2, 1, 1]}'
BIG = '{"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [4, 2, 2]}'
DUMBBELL = '{"kind": "dumbbell", "lengths": ["1", "1", "1"], "windings": [1, 1], "dilations": [1, 1]}'
GENERAL = json.dumps(
    {
        "kind": "general_circle",
        "target_length": "1",
        "vertices": ["v"],
        "edges": [["v", "v", "2"]],
        "walks": [{"dilation": 2, "start": "0", "signed_length": "4"}],
    }
)
# two loops at one vertex: a genus-2 graph that is not a curve model
FIGURE_EIGHT = json.dumps(
    {
        "kind": "general_circle",
        "target_length": "1",
        "vertices": ["v"],
        "edges": [["v", "v", "1"], ["v", "v", "2"]],
        "walks": [
            {"dilation": 1, "start": "0", "signed_length": "1"},
            {"dilation": 1, "start": "0", "signed_length": "2"},
        ],
    }
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------- parse_cover


def test_parse_cover_kinds():
    assert isinstance(parse_cover(DEGREE_TWO), ThetaCover)
    assert isinstance(parse_cover(DUMBBELL), DumbbellCover)
    assert isinstance(parse_cover(GENERAL), GeneralCircleCover)


def test_parse_cover_rejects_malformed_json():
    pytest.raises(ParseError, lambda: parse_cover("{"))
    pytest.raises(ParseError, lambda: parse_cover("[1, 2]"))


def test_parse_cover_rejects_bad_schema():
    pytest.raises(ValidationError, lambda: parse_cover('{"kind": "circle"}'))
    pytest.raises(
        ValidationError,
        lambda: parse_cover('{"kind": "theta", "lengths": [1, 1]}'),
    )
    with pytest.raises(ValidationError) as info:
        parse_cover(
            '{"kind": "theta", "lengths": [1.5, 1, 1],'
            ' "windings": [1, 1, 1], "dilations": [2, 1, 1]}'
        )
    assert "exact rational" in str(info.value)


_THETA = {"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [2, 1, 1]}
_DUMBBELL = {"kind": "dumbbell", "lengths": [1, 1, 1], "windings": [1, 1], "dilations": [2, 2]}
_RATIONAL = 'must be an exact rational ("p/q" string or integer)'
_KIND = 'kind must be "theta", "dumbbell", or "general_circle"'


def _with(document, **changes):
    """document with each key set to its value, or dropped when it is ..."""
    changed = {**document, **changes}
    return {key: value for key, value in changed.items() if value is not ...}


# Each malformed curve-model document and the one stderr line it gets.  A
# shape problem (a list missing or of the wrong length) is reported in the
# order of the keys, and hides every entry problem; entry problems are
# reported sorted, each once.
_SCHEMA_MESSAGES = {
    "theta-missing-windings": (_with(_THETA, windings=...), "windings must be a list of 3"),
    "theta-short-lengths": (_with(_THETA, lengths=[1, 1]), "lengths must be a list of 3"),
    "theta-object-dilations": (_with(_THETA, dilations={"a": 1}), "dilations must be a list of 3"),
    "theta-bool-winding": (_with(_THETA, windings=[True, 1, 1]), "windings must be an integer"),
    "theta-float-length": (_with(_THETA, lengths=[1.5, 1, 1]), f"lengths {_RATIONAL}"),
    "theta-exponent-length": (_with(_THETA, lengths=["1e3", 1, 1]), f"lengths {_RATIONAL}"),
    "theta-short-arcs": (_with(_THETA, arcs=[1]), "arcs must be a list of 2"),
    "theta-null-arcs": (_with(_THETA, arcs=None), "arcs must be a list of 2"),
    "theta-bad-arc": (_with(_THETA, arcs=["x", "1/2"]), f"arcs {_RATIONAL}"),
    "theta-shape-problems": (
        _with(_THETA, lengths=[1], windings=..., dilations="211", arcs=[1, 2, 3]),
        "lengths must be a list of 3; windings must be a list of 3;"
        " dilations must be a list of 3; arcs must be a list of 2",
    ),
    "theta-shape-before-entries": (
        _with(_THETA, lengths=[1.5, 1, 1], windings=[1, 1]),
        "windings must be a list of 3",
    ),
    "theta-entry-problems": (
        _with(
            _THETA,
            lengths=[1.5, True, "a"],
            windings=[True, "1", 1],
            dilations=[1, 1.0, 2],
            arcs=[0.5, 0.5],
        ),
        f"arcs {_RATIONAL}; dilations must be an integer; lengths {_RATIONAL};"
        " windings must be an integer",
    ),
    "theta-negative-length": (_with(_THETA, lengths=["-1", 1, 1]), "l_e must be positive"),
    "dumbbell-missing-dilations": (_with(_DUMBBELL, dilations=...), "dilations must be a list of 2"),
    "dumbbell-long-windings": (_with(_DUMBBELL, windings=[1, 1, 1]), "windings must be a list of 2"),
    "dumbbell-null-target": (_with(_DUMBBELL, target_length=None), f"target_length {_RATIONAL}"),
    "dumbbell-list-target": (_with(_DUMBBELL, target_length=[1]), f"target_length {_RATIONAL}"),
    "dumbbell-bool-dilation": (_with(_DUMBBELL, dilations=[True, 2]), "dilations must be an integer"),
    "dumbbell-shape-hides-target": (
        _with(_DUMBBELL, windings=[1], target_length=None),
        "windings must be a list of 2",
    ),
    "dumbbell-entry-problems": (
        _with(
            _DUMBBELL,
            lengths=["1/0", 1, "2e1"],
            windings=[False, 1],
            dilations=["2", 2],
            target_length=1.5,
        ),
        f"dilations must be an integer; lengths {_RATIONAL}; target_length {_RATIONAL};"
        " windings must be an integer",
    ),
    "dumbbell-zero-length": (_with(_DUMBBELL, lengths=[0, 1, 1]), "l_loop1 must be positive"),
    "dumbbell-wrong-target": (
        _with(_DUMBBELL, target_length="3"),
        "realizability on loop1: d1·l_loop1 = n1·l; realizability on loop2: d2·l_loop2 = n2·l",
    ),
    "kind-missing": (_with(_THETA, kind=...), _KIND),
    "kind-list": (_with(_THETA, kind=["theta"]), _KIND),
    "kind-object": (_with(_DUMBBELL, kind={"dumbbell": 1}), _KIND),
}


@pytest.mark.parametrize(
    "document, message", list(_SCHEMA_MESSAGES.values()), ids=list(_SCHEMA_MESSAGES)
)
def test_malformed_curve_models_get_their_schema_messages(document, message, tmp_path, capsys):
    code, out, err = run(capsys, "analyze", write(tmp_path, "bad.json", json.dumps(document)))
    assert (code, out, err) == (1, "", f"VALIDATION_ERROR: {message}\n")


_GENERAL = json.loads(GENERAL)

# Each malformed general_circle document and the one stderr line it gets.
# A missing list or target length is reported in the order of the keys and
# hides every entry problem; entry problems are reported sorted, each once.
_GENERAL_MESSAGES = {
    "missing-target": (_with(_GENERAL, target_length=...), "target_length is required"),
    "bad-edge-and-walk": (
        _with(_GENERAL, edges=[["v", "v"]], walks=[1]),
        "edges must be [tail, head, length] triples; walks must be objects",
    ),
    "everything-missing": (
        {"kind": "general_circle"},
        "vertices must be a list; edges must be a list; walks must be a list;"
        " target_length is required",
    ),
    "entry-problems": (
        _with(
            _GENERAL,
            target_length=1.5,
            edges=[["v", "v", 1.5], ["v", "v", "x"]],
            walks=[{"dilation": "2"}],
        ),
        f"edge length {_RATIONAL}; target_length {_RATIONAL}; walk dilation must be an integer",
    ),
}


@pytest.mark.parametrize(
    "document, message", list(_GENERAL_MESSAGES.values()), ids=list(_GENERAL_MESSAGES)
)
def test_malformed_general_covers_get_their_schema_messages(document, message, tmp_path, capsys):
    code, out, err = run(capsys, "analyze", write(tmp_path, "bad.json", json.dumps(document)))
    assert (code, out, err) == (1, "", f"VALIDATION_ERROR: {message}\n")


def test_parse_cover_reports_invariant_names():
    with pytest.raises(ValidationError) as info:
        parse_cover(
            '{"kind": "theta", "lengths": [1, 1, 1],'
            ' "windings": [1, 1, 1], "dilations": [2, 1, 2]}'
        )
    assert "balancing: d_e = d_e1 + d_e2" in str(info.value)


def test_parse_dumbbell_derives_target_length():
    cover = parse_cover(DUMBBELL)
    assert cover.target_length == 1


# ----------------------------------------------------------------- analyze


def test_analyze_report_values(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", write(tmp_path, "p.json", DEGREE_TWO))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["kind"] == "theta"
    assert report["degree"] == 2
    assert report["target_length"] == "3"
    assert report["arcs"] == ["2", "1"]
    assert report["pushforward"] == {"f_sharp": [[2], [-1]], "f_hash": [[1, 0]]}
    assert report["kernel_length"] == "1"
    assert report["component_count"] == 1
    assert report["gamma"] == {"l_tilde": "3", "a_sharp": 1, "a_hash": 1}
    assert report["optimality"]["kernel_connected"] is True
    assert report["pullback_kernel"] == [{"position": "0", "order": 1}]
    assert "split" not in report


def test_analyze_with_split_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write(tmp_path, "p.json", DEGREE_TWO), "--split")
    assert code == 0
    split = json.loads(out)["split"]
    assert split["phi"] == [[1, 1], [2, 0]]
    assert split["phi_tilde"] == [[0, 1], [2, -1]]
    assert split["kernel_points"] == [["0", "0"], ["1/2", "3/2"]]
    assert all(split["flags"].values())


def test_analyze_split_not_applicable(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write(tmp_path, "b.json", BIG), "--split")
    assert code == 0
    split = json.loads(out)["split"]
    assert split["applicable"] is False
    assert "dilation" in split["reason"]


def test_analyze_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "p.json", DEGREE_TWO)
    _, first, _ = run(capsys, "analyze", path, "--split")
    _, second, _ = run(capsys, "analyze", path, "--split")
    assert first == second


def test_analyze_general_circle(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write(tmp_path, "g.json", GENERAL))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "general_circle"
    assert report["degree"] == 8
    assert report["pullback_kernel"] == [
        {"position": "0", "order": 1},
        {"position": "1/2", "order": 2},
    ]


def test_text_format(tmp_path, capsys):
    code, out, _ = run(
        capsys, "analyze", write(tmp_path, "p.json", DEGREE_TWO), "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert "component_count: 1" in lines
    assert 'kernel_length: "1"' in lines
    assert "optimality.kernel_connected: true" in lines


# ---------------------------------------------------------- other commands


def test_optimal_command(tmp_path, capsys):
    code, out, _ = run(capsys, "optimal", write(tmp_path, "d.json", DUMBBELL))
    assert code == 0
    assert json.loads(out) == {
        "kernel_connected": True,
        "dumbbell_gcd_free": True,
        "component_count": 1,
        "note": None,
    }


def test_complement_command(tmp_path, capsys):
    code, out, _ = run(capsys, "complement", write(tmp_path, "p.json", DEGREE_TWO))
    assert code == 0
    report = json.loads(out)
    assert report["target_length"] == "1"
    assert report["dilations"] == [0, 1, 1]
    assert report["signs"] == [0, -1, 1]
    assert report["degree"] == 2


def test_split_command(tmp_path, capsys):
    code, out, _ = run(capsys, "split", write(tmp_path, "p.json", DEGREE_TWO))
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == [[1, 1], [2, 0]]
    assert all(report["flags"].values())


def test_factor_command(tmp_path, capsys):
    big = write(tmp_path, "big.json", BIG)
    small = write(tmp_path, "small.json", DEGREE_TWO)
    code, out, _ = run(capsys, "factor", big, small)
    assert code == 0
    assert json.loads(out) == {
        "factors": True,
        "a_sharp": 2,
        "a_hash": 1,
        "from_length": "3",
        "to_length": "6",
    }
    other = write(
        tmp_path,
        "other.json",
        '{"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 2], "dilations": [2, 0, 2]}',
    )
    code, out, _ = run(capsys, "factor", big, other)
    assert code == 0
    assert json.loads(out) == {"factors": False}


# -------------------------------------------------------------- exit codes


def test_validation_error_exits_one(tmp_path, capsys):
    bad = write(
        tmp_path,
        "bad.json",
        '{"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [2, 1, 2]}',
    )
    code, out, err = run(capsys, "analyze", bad)
    assert code == 1 and out == ""
    assert err.startswith("VALIDATION_ERROR:")
    assert "balancing" in err


@pytest.mark.parametrize("label", [["a"], {"a": 1}], ids=["list", "dict"])
def test_unhashable_vertex_label_exits_one(label, tmp_path, capsys):
    # valid JSON whose vertex label cannot key a set or a dict
    document = json.loads(GENERAL)
    document["vertices"] = [label]
    document["edges"] = [[label, label, "2"]]
    code, out, err = run(capsys, "analyze", write(tmp_path, "u.json", json.dumps(document)))
    assert code == 1 and out == ""
    assert err == "VALIDATION_ERROR: vertex labels must be hashable\n"


def test_console_entry_point_exits_with_the_run_command_code(tmp_path, capsys):
    # tropjac.cli:main run as a program, as the installed tropjac script runs it
    src = Path(__file__).resolve().parent.parent / "src"

    def console(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "tropjac.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        return done.returncode, done.stdout, done.stderr

    good = write(tmp_path, "good.json", DEGREE_TWO)
    code, out, err = analyzed = console("analyze", good)
    assert (code, err) == (0, "") and json.loads(out)["kind"] == "theta"
    assert analyzed == run(capsys, "analyze", good)
    big = write(tmp_path, "big.json", BIG)
    code, out, err = refused = console("complement", big)
    assert (code, out) == (1, "") and err.startswith("NOT_OPTIMAL: ")
    assert refused == run(capsys, "complement", big)
    code, out, _ = console("no-such-command", good)
    assert (code, out) == (2, "")


def test_parse_error_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", write(tmp_path, "x.json", "{"))
    assert code == 1
    assert err.startswith("PARSE_ERROR:")


def test_not_optimal_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "complement", write(tmp_path, "b.json", BIG))
    assert code == 1
    assert err.startswith("NOT_OPTIMAL:")


def test_oversized_kernel_listing_exits_one_before_listing(tmp_path, capsys):
    # dilations (10^9, 10^9): the pullback kernel has 10^9 points
    huge = write(
        tmp_path,
        "huge.json",
        '{"kind": "dumbbell", "lengths": [1, 1, 1], "windings": [1, 1], '
        '"dilations": [1000000000, 1000000000]}',
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", huge)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("KERNEL_TOO_LARGE:")
    assert "1000000000 points" in err


def test_split_kernel_with_a_count_past_the_digit_limit_exits_one(tmp_path, capsys):
    # the strongly optimal dumbbell with k = 5·10^4299: its split kernel has
    # 2k + 1 = 10^4300 + 1 points, a count of more digits than Python
    # converts to a string (4300 by default)
    k = 5 * 10**4299
    document = write(
        tmp_path,
        "d.json",
        f'{{"kind": "dumbbell", "lengths": ["1/{k}", "1/{k + 1}", 1], "windings": [1, 1], '
        f'"dilations": [{k}, {k + 1}]}}',
    )
    code, out, err = run(capsys, "split", document)
    assert code == 1 and out == ""
    assert err.startswith("KERNEL_TOO_LARGE:")


@pytest.mark.parametrize(
    "argv", [("split",), ("split", "--format", "text"), ("analyze", "--split")]
)
def test_split_kernel_past_the_listing_bound_exits_one_at_once(argv, tmp_path, capsys):
    # the degree-(10^12 + 1) ladder: the library answers it, and the CLI
    # refuses its kernel when it puts it in the report, before any point is
    # written
    k = 5 * 10**11
    document = write(
        tmp_path,
        "d.json",
        f'{{"kind": "dumbbell", "lengths": ["1/{k}", "1/{k + 1}", 1], "windings": [1, 1], '
        f'"dilations": [{k}, {k + 1}]}}',
    )
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], document, *argv[1:])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "KERNEL_TOO_LARGE: the isogeny kernel has 1000000000001 points, "
        "above the listing bound of 1000000\n"
    )


def test_a_long_chain_analyzes_at_once(tmp_path, capsys):
    # a chain of 4000 vertices with a loop at each end, each loop wrapping
    # the circle once: genus 2 over a BFS tree 4000 vertices deep, so the
    # tree, its cycles and the walk positions must cost time linear in the
    # size of the graph
    n = 4000
    loop = {"dilation": 1, "start": 0, "signed_length": 1}
    bridge = {"dilation": 0, "start": 0, "signed_length": 0}
    document = {
        "kind": "general_circle",
        "target_length": 1,
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [["v0", "v0", 1]]
        + [[f"v{i}", f"v{i + 1}", 1] for i in range(n - 1)]
        + [[f"v{n - 1}", f"v{n - 1}", 1]],
        "walks": [loop] + [bridge] * (n - 1) + [loop],
    }
    path = write(tmp_path, "chain.json", json.dumps(document))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", path, "--split")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out)["degree"] == 2


@pytest.mark.parametrize(
    "length, error",
    [
        ('"1e10000000"', "VALIDATION_ERROR: lengths must be an exact rational"),
        ("true", "VALIDATION_ERROR: lengths must be an exact rational"),
        ("1" * 5000, "PARSE_ERROR: malformed JSON"),
    ],
    ids=["exponent", "bool", "5000-digits"],
)
def test_inexact_or_oversized_lengths_exit_one_at_once(length, error, tmp_path, capsys):
    document = write(
        tmp_path,
        "d.json",
        f'{{"kind": "dumbbell", "lengths": [{length}, 1, 1], "windings": [1, 1], '
        '"dilations": [1, 1]}',
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", document)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith(error)


# the most digits Python converts an int to a string with; 0 is no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < 5000, reason="no int-to-str digit limit below 5000 digits"
)


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_number_past_the_digit_limit_exits_one(fmt, tmp_path, capsys):
    # a valid cover whose target length has a 5001-digit denominator
    p1, p2 = 10**2500 + 1, 10**2500 + 3
    document = write(
        tmp_path,
        "d.json",
        json.dumps(
            {
                "kind": "theta",
                "lengths": [f"1/{p1}", f"1/{p2}", f"1/{p2}"],
                "windings": [1, 1, 1],
                "dilations": [2, 1, 1],
            }
        ),
    )
    code, out, err = run(capsys, "analyze", document, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith(f"NUMBER_TOO_LARGE: a number of the report has more than {DIGIT_LIMIT} digits")


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_rendering_an_int_past_the_digit_limit_raises(fmt):
    with pytest.raises(NumberTooLarge):
        _render({"entries": [[1, 10**5000]]}, fmt)
    with pytest.raises(NumberTooLarge):
        _render({"order": 10**5000}, fmt)


@needs_digit_limit
def test_kernel_point_past_the_digit_limit_raises():
    # crafted split kernels whose second point is (1/(10^5000 + 1),
    # 1/(10^5000 + 1)) or (10^5000, 1): the writer meets the long int in
    # either format
    identity = Matrix.identity(2)
    for kernel in (
        SplitKernel(2, (1, 1), 1, 10**5000 + 1),
        SplitKernel(2, (10**5000, 1), 1, 1),
    ):
        report = _split_dict(SplitReport(identity, identity, kernel, 1, {}, None, None))
        for fmt in ("json", "text"):
            with pytest.raises(NumberTooLarge):
                _render(report, fmt)


@needs_digit_limit
@pytest.mark.parametrize("position", [10**5000, Fraction(1, 10**5000 + 1)], ids=["int", "fraction"])
def test_divisor_position_past_the_digit_limit_raises(position):
    # the kernel of order 2 generated by position: its second divisor sits there
    for fmt in ("json", "text"):
        with pytest.raises(NumberTooLarge):
            _render({"pullback_kernel": CyclicKernel(2, position)}, fmt)


NON_INTEGRAL = st.builds(Fraction, st.integers(1, 97), st.integers(2, 60)).filter(lambda x: x.denominator > 1)


@st.composite
def bouquet_covers(draw, loops):
    """Covers of a circle by a bouquet of loops (genus 2 or 3), loop i of
    dilation g·a_i winding n_i times, over a target of non-integral length,
    so the pullback kernel is the g-torsion with g up to MAX_KERNEL_GCD."""
    g = draw(st.integers(1, MAX_KERNEL_GCD))
    length = draw(NON_INTEGRAL)
    edges, walks = [], []
    for _ in range(loops):
        a, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        edges.append(("v", "v", n * length / (g * a)))
        walks.append((g * a, 0, n * length))
    return GeneralCircleCover(MetricGraph(["v"], edges), length, walks)


WIDE_COVERS = st.one_of(
    wide_kernel_covers().filter(lambda cover: target_length(cover).denominator > 1),
    bouquet_covers(2),
    bouquet_covers(3),
)


def _bouquet(loops, edge_length, target, dilation, walk_length):
    graph = MetricGraph(["v"], [("v", "v", edge_length)] * loops)
    return GeneralCircleCover(graph, target, [(dilation, 0, walk_length)] * loops)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(WIDE_COVERS)
# one of each kind, of kernels of 3000 or 2999 points
@example(DumbbellCover(DumbbellCurve(Fraction(7, 15000), Fraction(7, 7500), 1), (1, 2), (3000, 3000)))
@example(
    ThetaCover(
        ThetaCurve(Fraction(1, 17994), Fraction(1, 5998), Fraction(1, 5998)), (1, 1, 1), (5998, 2999, 2999)
    )
)
@example(_bouquet(2, Fraction(1, 2000), Fraction(3, 2), 3000, Fraction(3, 2)))
@example(_bouquet(3, Fraction(7, 4500), Fraction(7, 3), 3000, Fraction(14, 3)))
def test_kernel_writer_matches_the_divisor_dicts(cover):
    # the kernel written from its generator is what json.dumps writes for
    # the divisor dicts of the divisor loop, in both formats
    kernel = pullback_kernel_group(cover)
    listed = divisor_pullback_kernel(cover)
    order, step = kernel
    expanded = [TorsionDivisor(j * Fraction(step), order // gcd(j, order)) for j in range(order)]
    assert pullback_kernel(cover) == expanded == listed
    dicts = [{"position": str(position), "order": m} for position, m in listed]
    assert _render({"pullback_kernel": kernel}, "json") == json.dumps({"pullback_kernel": dicts}, indent=2)
    assert _render({"pullback_kernel": kernel}, "text") == f"pullback_kernel: {json.dumps(dicts)}"


@pytest.mark.parametrize(
    "kernels",
    [
        [CyclicKernel(g, 1) for g in range(1, 301)],
        [CyclicKernel(g, step) for g in (1, 2, 12, 360) for step in (7, 10**20 + 1)],
        [CyclicKernel(360, Fraction(7, q)) for q in (2, 12, 360)],
        # prime to g, and over every prime of g with higher powers
        [CyclicKernel(360, Fraction(7, q)) for q in (11, 1009, 1350)],
        [CyclicKernel(360, step) for step in (Fraction(5, 66), Fraction(1, 196), Fraction(7, 1024))],
        [CyclicKernel(7919, 1), CyclicKernel(7919, Fraction(3, 14))],
        # 2^4·3^2·5·7·11·13: 240 divisors
        [CyclicKernel(720720, 1)],
    ],
    ids=["g-to-300", "int-step", "q-divides-g", "q-not-dividing-g", "q-shares-some-primes", "prime-g", "g-720720"],
)
def test_divisor_writer_matches_the_gcd_loop(kernels, monkeypatch):
    # the orders read from the divisor sieve give the bytes that two gcds
    # per divisor gave, in both formats.  The texts are compared split at
    # each divisor's closing brace, so that a failure names the first
    # divisor that differs rather than diffing two long strings.
    for kernel in kernels:
        for fmt in ("json", "text"):
            written = _render({"pullback_kernel": kernel}, fmt)
            monkeypatch.setitem(_KERNELS, CyclicKernel, (gcd_divisor_texts, "{", "}"))
            expected = _render({"pullback_kernel": kernel}, fmt)
            monkeypatch.undo()
            assert written.split("}") == expected.split("}"), (kernel, fmt)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(split_covers())
# the ladder dumbbell of degree 2001, and walk covers of degrees 1981 and 1983
@example(DumbbellCover(DumbbellCurve(Fraction(1, 1000), Fraction(1, 1001), 1), (1, 1), (1000, 1001)))
@example(row_walk_cover(ThetaCurve(Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)).graph(), (-11, 2)))
@example(row_walk_cover(MetricGraph(["v"], [("v", "v", Fraction(5, 7)), ("v", "v", Fraction(9, 8))]), (-33, 8)))
def test_split_kernel_writer_matches_the_matrix_listing(cover):
    # the split kernel, kept as int numerators, is written as json.dumps
    # writes the str of every entry of the kernel listed by Matrix
    # arithmetic, in both formats, and expands to that listing
    report = verify_split_package(cover)
    listed = matrix_isogeny_kernel_points(report.phi_morphism)
    assert report.kernel_points == listed
    split = _split_dict(report)
    strings = {**split, "kernel_points": [[str(x) for (x,) in p.entries()] for p in listed]}
    assert _render(split, "json") == json.dumps(strings, indent=2)
    assert _render(split, "text") == _render(strings, "text")
    # both torsion flags agree with the check on stored numbers rescaled
    # over their lcm
    degree, pairing = report.degree, report.phi_morphism.source.pairing
    flags = ["kernel_matches_d_torsion_TEprime", "kernel_matches_d_torsion_TE"]
    for i, flag in enumerate(flags):
        assert report.flags[flag] is over_lcm_is_d_torsion([p[i, 0] for p in listed], pairing[i, i], degree) is True
    # so does the order reading of altered kernel groups (the generator
    # times a unit or a non-unit, or with one coordinate 0, and factors
    # (2, d/2)), against the box listing of each group
    factors, den, generators = quotient_group(report.phi_morphism.f_hash)
    (x, y), zero = generators[-1], generators[:-1]
    non_unit = next((p for p in range(2, den + 1) if den % p == 0), 0)
    groups = [
        (factors, den, [*zero, (-x % den, -y % den)]),
        (factors, den, [*zero, (x * non_unit % den, y * non_unit % den)]),
        (factors, den, [*zero, (x, 0)]),
        (factors, den, [*zero, (0, y)]),
    ]
    if den % 2 == 0:
        groups.append(((2, den // 2), den, generators))
    for group in groups:
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(split_jacobian, "quotient_group", lambda f_hash, group=group: group)
            read = verify_split_package(cover).flags
        box = _box_points(2, group[2], group[0], den)
        points = _listed_points(pairing, den, box, prod(group[0])).columns()
        for i, flag in enumerate(flags):
            assert read[flag] is over_lcm_is_d_torsion([p[i, 0] for p in points], pairing[i, i], degree)


def _written_from_the_generator(kernel):
    """Whether a SplitKernel is written, in both formats, byte for byte as
    json.dumps writes the str of each Fraction of its listing."""
    numerators, den = kernel.listed()
    points = [[str(Fraction(n, den)) for n in point] for point in numerators]
    return _render({"kernel_points": kernel}, "json") == json.dumps(
        {"kernel_points": points}, indent=2
    ) and _render({"kernel_points": kernel}, "text") == f"kernel_points: {json.dumps(points)}"


def _split_kernel(cover):
    kernel = verify_split_package(cover).kernel
    assert type(kernel) is SplitKernel
    return kernel


def test_split_kernel_is_written_from_its_generator_on_the_ladder_and_the_corpus():
    # the ladder dumbbells of degree 3 to 2001, and the strongly optimal
    # corpus covers of degree 1, whose one point has multiplier 0
    corpus = [_split_kernel(c) for c in cover_corpus() if strong_optimality_gap(c) is None]
    ones = [kernel for kernel in corpus if kernel.order == 1]
    assert ones and all(kernel.multiplier == 0 for kernel in ones)
    ladder = [
        _split_kernel(DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1)))
        for k in range(1, 1001)
    ]
    for kernel in ones + ladder:
        assert _written_from_the_generator(kernel)


@settings(max_examples=60, deadline=None)
@given(split_covers())
def test_split_kernel_is_written_from_its_generator_beyond_the_corpus(cover):
    assert _written_from_the_generator(_split_kernel(cover))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 60).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
            st.integers(0, d - 1),
            st.integers(1, 10**6).map(lambda den: den * d),
        )
    )
)
def test_any_split_kernel_is_written_as_its_listing(fields):
    # steps sharing any factor with the denominator, any multiplier, unit
    # or not: each position is written in lowest terms
    assert _written_from_the_generator(SplitKernel(*fields))


# tall_cover of the split tests: a theta cover of degree 3 whose TE' has length 3
TALL = '{"kind": "theta", "lengths": [1, 1, 4], "windings": [1, 1, 2], "dilations": [2, 1, 1]}'


@pytest.mark.parametrize("case", ["kernel group not cyclic", "kernel points off TE'"])
@pytest.mark.parametrize("document", [DEGREE_TWO, TALL], ids=["degree-2", "tall"])
def test_a_broken_kernel_group_is_written_as_its_generators(case, document, tmp_path, capsys, monkeypatch):
    # a kernel group that is not cyclic with a unit TE' coordinate, which
    # no valid cover has, is written unlisted, as its factors and its
    # generators, by split and analyze --split in both formats, with the
    # torsion flags that the case breaks false
    binding, patch, broken = BROKEN_FLAGS[case]
    monkeypatch.setattr(split_jacobian, binding, patch(getattr(split_jacobian, binding), None))
    report = verify_split_package(parse_cover(document))
    phi = report.phi_morphism
    factors, den, generators = split_jacobian.quotient_group(phi.f_hash)
    points = [phi.source.pairing * Matrix.column([Fraction(c, den) for c in g]) for g in generators]
    assert report.kernel_points == subgroup_generated(phi.source, points)
    group = {"factors": list(factors), "generators": [[str(x) for x in p.column_tuple(0)] for p in points]}
    path = write(tmp_path, "c.json", document)
    for command, prefix in ((["split", path], ""), (["analyze", path, "--split"], "split.")):
        code, out, _ = run(capsys, *command, "--format", "json")
        assert code == 0
        split = json.loads(out)["split"] if prefix else json.loads(out)
        assert list(split) == ["phi", "phi_tilde", "degree", "kernel_group", "flags"]
        assert split["kernel_group"] == group
        assert {flag for flag, holds in split["flags"].items() if not holds} == broken
        code, out, _ = run(capsys, *command, "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert f"{prefix}kernel_group.factors: {json.dumps(group['factors'])}" in lines
        assert f"{prefix}kernel_group.generators: {json.dumps(group['generators'])}" in lines
        for flag, holds in split["flags"].items():
            assert f"{prefix}flags.{flag}: {json.dumps(holds)}" in lines
        assert "kernel_points" not in out


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    code, _, _ = run(capsys)
    assert code == 2
    code, _, _ = run(capsys, "frobnicate", "x")
    assert code == 2


def test_contracted_general_cover_is_rejected(tmp_path, capsys):
    # degree 0: the only edge is contracted, so nothing covers the circle
    document = (
        '{"kind":"general_circle","vertices":["v"],"edges":[["v","v","1"]],'
        '"target_length":"1","walks":[{"dilation":0,"start":0,"signed_length":0}]}'
    )
    code, out, err = run(capsys, "analyze", write(tmp_path, "zero.json", document))
    assert code == 1 and out == ""
    assert err.startswith("VALIDATION_ERROR: surjectivity")


@pytest.mark.parametrize("command", ["optimal", "complement", "split"])
@pytest.mark.parametrize(
    "document, code",
    [(GENERAL, 1), (FIGURE_EIGHT, 0)],
    ids=["genus-1", "figure-eight"],
)
def test_genus_2_commands_on_general_covers(command, document, code, tmp_path, capsys):
    exit_code, out, err = run(capsys, command, write(tmp_path, "g.json", document))
    assert exit_code == code
    if code:
        assert out == "" and err.startswith("UNSUPPORTED_GENUS:")
    else:
        assert err == "" and json.loads(out)


THETA_KEYS = [
    "kind", "degree", "target_length", "windings", "dilations", "pushforward",
    "kernel_length", "gamma", "component_count", "optimality", "pullback_kernel",
    "arcs", "split",
]


@pytest.mark.parametrize(
    "document, keys",
    # windings and arcs are the only model-only keys
    [
        (DEGREE_TWO, THETA_KEYS),
        (FIGURE_EIGHT, [k for k in THETA_KEYS if k not in ("windings", "arcs")]),
        (GENERAL, ["kind", "degree", "target_length", "dilations", "pullback_kernel"]),
    ],
    ids=["theta", "figure-eight", "genus-1"],
)
def test_analyze_reports_one_key_order(document, keys, tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write(tmp_path, "c.json", document), "--split")
    assert code == 0
    assert list(json.loads(out)) == keys


def test_factor_on_general_covers(tmp_path, capsys):
    for document in (GENERAL, FIGURE_EIGHT):
        path = write(tmp_path, "g.json", document)
        code, out, _ = run(capsys, "factor", path, path)
        assert code == 0
        assert json.loads(out)["factors"] is True


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


# ------------------------------------------------------------- rendering

# quotes, backslashes, control characters, non-ASCII and lone surrogates
_CHARACTERS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
    st.characters(blacklist_categories=()),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.text(_CHARACTERS),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(_CHARACTERS, max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_renderer_writes_what_json_dumps_writes(value):
    assert _json(value, "\n") == json.dumps(value, indent=2)
    assert _render(value, "json") == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [0.5, Fraction(1, 3), {1: "one"}, {None: 0}, {"a": [1, 2.0]}, [{"b": Fraction(2)}], [{1: "one"}], {1, 2}],
    ids=["float", "fraction", "int-key", "none-key", "nested-float", "nested-fraction", "nested-int-key", "set"],
)
def test_renderer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value, "\n")
