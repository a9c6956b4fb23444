"""Tests for the command-line interface."""

import errno
import io
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
from tropjac.cli import _COMMANDS, _KERNELS, _render, _split_dict, _usage, parse_cover, run_command
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
        "realizability on loop1: d1·l_loop1 = n1·l (lhs=2, rhs=3);"
        " realizability on loop2: d2·l_loop2 = n2·l (lhs=2, rhs=3)",
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


# the figure-eight cover with both dilations doubled: it factors through
# the multiplication-by-2 dilation of its target, a_sharp = a_hash = 2
DOUBLED_FIGURE_EIGHT = json.dumps(
    {
        **json.loads(FIGURE_EIGHT),
        "walks": [
            {"dilation": 2, "start": "0", "signed_length": "2"},
            {"dilation": 2, "start": "0", "signed_length": "4"},
        ],
    }
)


@pytest.mark.parametrize(
    "document",
    [BIG, json.dumps(_DUMBBELL), DOUBLED_FIGURE_EIGHT, DEGREE_TWO],
    ids=["theta", "dumbbell", "figure-eight", "strongly-optimal"],
)
def test_optimal_factor_report_is_a_cover_document_that_reads_back(document, tmp_path, capsys):
    path = write(tmp_path, "c.json", document)
    code, out, err = run(capsys, "optimal-factor", path, "--split")
    assert code == 0 and err == ""
    report = json.loads(out)
    _, given, _ = run(capsys, "analyze", path)
    given = json.loads(given)
    gamma = given["gamma"]
    assert report["l_tilde"] == gamma["l_tilde"]
    assert report["psi"] == {
        "factors": True,
        "a_sharp": gamma["a_sharp"],
        "a_hash": gamma["a_hash"],
        "from_length": gamma["l_tilde"],
        "to_length": given["target_length"],
    }
    assert report["degree"] * gamma["a_sharp"] * gamma["a_hash"] == given["degree"]
    # the report, as it is, is the factor's cover document
    factor = write(tmp_path, "f.json", out)
    code, analyzed, _ = run(capsys, "analyze", factor, "--split")
    assert code == 0
    analyzed = json.loads(analyzed)
    assert analyzed["degree"] == report["degree"]
    assert analyzed["target_length"] == report["l_tilde"]
    assert analyzed["kernel_length"] == given["kernel_length"]
    assert analyzed["gamma"] == {"l_tilde": report["l_tilde"], "a_sharp": 1, "a_hash": 1}
    assert all(report["split"]["flags"].values())
    # the split is written in the cycle basis the document is read back
    # with, also when the input is a curve model with its own basis
    assert analyzed["split"] == report["split"]
    if json.loads(document)["kind"] == "general_circle":
        # the factor keeps the graph and cycle basis of its input, so psi
        # is what factor writes
        _, psi, _ = run(capsys, "factor", path, factor)
        assert json.loads(psi) == report["psi"]


def test_optimal_factor_text_format_and_split_refusal(tmp_path, capsys):
    path = write(tmp_path, "b.json", BIG)
    code, out, _ = run(capsys, "optimal-factor", path, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'kind: "general_circle"'
    assert "psi.a_sharp: 2" in lines and "psi.a_hash: 1" in lines
    assert not any(line.startswith("split.") for line in lines)
    # split still refuses the cover that optimal-factor factors
    code, out, err = run(capsys, "split", path)
    assert code == 1 and out == "" and err.startswith("NOT_OPTIMAL:")


def test_optimal_factor_refuses_a_float_vertex_label(tmp_path, capsys):
    # analyze never writes a vertex label; optimal-factor writes each back
    document = DOUBLED_FIGURE_EIGHT.replace('"v"', "0.5")
    path = write(tmp_path, "f.json", document)
    assert run(capsys, "analyze", path)[0] == 0
    code, out, err = run(capsys, "optimal-factor", path)
    assert code == 1 and out == ""
    assert err == "VALIDATION_ERROR: optimal-factor writes no float vertex label\n"


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
    code, out, err = console("no-such-command", good)
    assert (code, out) == (2, "")
    commands = ", ".join(_COMMANDS)
    assert err == f"usage error: unknown command 'no-such-command'; the commands are {commands}\n"
    assert console("--help") == (0, _usage() + "\n", "")


def test_parse_error_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", write(tmp_path, "x.json", "{"))
    assert code == 1
    assert err.startswith("PARSE_ERROR:")


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + DEGREE_TWO.encode("utf-16-le"))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"PARSE_ERROR: {path} is not UTF-8 text: invalid start byte at byte 0\n"


@pytest.mark.parametrize("where", ["document", "walks"])
def test_json_nested_past_the_recursion_limit_is_a_parse_error(where, tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    document = deep if where == "document" else GENERAL.replace('"walks": [', f'"walks": [{deep}, ')
    assert document != GENERAL
    with pytest.raises(ParseError, match="^JSON nested more deeply than Python can read$"):
        parse_cover(document)
    code, out, err = run(capsys, "analyze", write(tmp_path, "deep.json", document))
    assert (code, out, err) == (1, "", "PARSE_ERROR: JSON nested more deeply than Python can read\n")


def _buffered_program_env():
    """The environment of a tropjac program run from src with its stdout
    buffered, as it is unless PYTHONUNBUFFERED is set."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def test_a_report_cut_off_by_its_reader_exits_one_with_one_line(tmp_path):
    # the 1.2 MB report of the g = 20000 dumbbell, through a pipe whose
    # reader closes it after one byte: one stderr line, no traceback and no
    # "Exception ignored" from the interpreter's last flush
    document = {"kind": "dumbbell", "lengths": [1, 1, 1], "windings": [1, 1], "dilations": [20000, 20000]}
    path = write(tmp_path, "wide.json", json.dumps(document))
    child = subprocess.Popen(
        [sys.executable, "-m", "tropjac.cli", "analyze", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=_buffered_program_env(),
    )
    assert child.stdout.read(1) == b"{"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert err == b"cannot write the report: Broken pipe\n"


def test_main_drops_what_a_failed_run_left_in_the_stdout_buffer():
    # what is still buffered when run_command fails goes to os.devnull, so
    # the interpreter's last flush writes nothing and cannot fail
    program = (
        "import sys\n"
        "from tropjac import cli\n"
        "cli.run_command = lambda argv: sys.stdout.write('left in the buffer') and 1\n"
        "cli.main()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        env=_buffered_program_env(),
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_report_that_cannot_be_written_exits_one(fmt, tmp_path, capsys, monkeypatch):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    path = write(tmp_path, "d.json", DEGREE_TWO)
    monkeypatch.setattr(sys, "stdout", FullDisk())
    code = run_command(["analyze", path, "--format", fmt])
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr() == ("", f"cannot write the report: {os.strerror(errno.ENOSPC)}\n")


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
def test_a_realizability_side_past_the_digit_limit_exits_one(tmp_path, capsys):
    # a dilation of 4001 digits times a length of 4000 digits
    dilation, length = 10**4000 + 1, 3 * 10**3999 + 1
    document = {
        "kind": "theta",
        "lengths": [1, 1, length],
        "windings": [1, 1, 1],
        "dilations": [dilation + 1, 1, dilation],
    }
    code, out, err = run(capsys, "analyze", write(tmp_path, "t.json", json.dumps(document)))
    bits = (dilation * length).bit_length()
    assert (code, out) == (1, "")
    assert err == (
        "VALIDATION_ERROR: realizability on e2: d_e2·l_e2 = (n2−1)·l~1 + n2·l~2"
        f" (lhs=a number of {bits} bits, rhs=1)\n"
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


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "kernel", [SplitKernel(1, (0, 0), 0, 1), CyclicKernel(3, 0)], ids=["split", "cyclic"]
)
def test_a_zero_kernel_step_is_not_reported_as_a_long_number(kernel, fmt):
    # a zero step, which no valid cover has, makes _positions call
    # range(0, 0, 0); that ValueError is not the digit limit of str
    with pytest.raises(ValueError, match="must not be zero"):
        _render({"k": kernel}, fmt)


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


@pytest.mark.parametrize("command", ["optimal", "complement", "split", "optimal-factor"])
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


# argv rows of the command-line reader, FILE standing for a cover file: the
# exit code, and for a row that succeeds, the argv whose output it prints
# (None for the help text); prefixes of option names are not read
_ARGV_ROWS = {
    "no-argument": ([], 2, None),
    "unknown-command": (["frobnicate", "FILE"], 2, None),
    "format-before-command": (["--format", "text", "analyze", "FILE"], 2, None),
    "missing-file": (["analyze"], 2, None),
    "extra-file": (["analyze", "FILE", "FILE"], 2, None),
    "factor-one-file": (["factor", "FILE"], 2, None),
    "split-split": (["split", "FILE", "--split"], 2, None),
    "format-no-value": (["analyze", "FILE", "--format"], 2, None),
    "format-xml": (["analyze", "FILE", "--format", "xml"], 2, None),
    "format-empty": (["analyze", "FILE", "--format="], 2, None),
    "unknown-option": (["analyze", "FILE", "-x"], 2, None),
    "unknown-option-alone": (["-x"], 2, None),
    "double-dash": (["analyze", "--", "FILE"], 0, ["analyze", "FILE"]),
    "option-after-double-dash": (["analyze", "FILE", "--", "--split"], 2, None),
    "split-before-file": (["analyze", "--split", "FILE"], 0, ["analyze", "FILE", "--split"]),
    "format-equals": (["analyze", "FILE", "--format=text"], 0, ["analyze", "FILE", "--format", "text"]),
    "format-repeated": (["analyze", "FILE", "--format", "text", "--format", "json"], 0, ["analyze", "FILE"]),
    "help-after-file": (["analyze", "FILE", "-h"], 0, None),
    "help-after-unknown-option": (["analyze", "FILE", "-x", "--help"], 0, None),
    "help-after-bad-format": (["analyze", "FILE", "--format", "xml", "-h"], 2, None),
    "help-as-format-value": (["analyze", "FILE", "--format", "-h"], 2, None),
    "help-after-double-dash": (["analyze", "--", "-h"], 2, None),
    "file-then-help": (["FILE", "-h"], 2, None),
    "abbreviated-split": (["analyze", "FILE", "--spl"], 2, None),
    "abbreviated-format": (["analyze", "FILE", "--form", "text"], 2, None),
}


@pytest.mark.parametrize("argv, code, same_as", list(_ARGV_ROWS.values()), ids=list(_ARGV_ROWS))
def test_the_reader_answers_each_argv_row(argv, code, same_as, tmp_path, capsys):
    path = write(tmp_path, "c.json", DEGREE_TWO)
    fill = lambda args: [path if arg == "FILE" else arg for arg in args]
    got, out, err = run(capsys, *fill(argv))
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1 and err.endswith("\n")
    elif same_as is None:
        assert (out, err) == (_usage() + "\n", "")
    else:
        assert err == "" and (0, out, "") == run(capsys, *fill(same_as))


@pytest.mark.parametrize("name", ["-5", "-.5", "-a b.json"])
def test_a_negative_number_or_a_name_with_a_space_is_a_file(name, tmp_path, monkeypatch, capsys):
    write(tmp_path, name, DEGREE_TWO)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "analyze", name) == run(capsys, "analyze", "--", name)
    assert run(capsys, "analyze", name)[0] == 0


def test_the_help_text_names_every_command_and_flag(capsys):
    _, out, _ = run(capsys, "-h")
    lines = out.splitlines()
    for name, (count, flags, blurb, _) in _COMMANDS.items():
        synopsis = " ".join([name, *["COVER.json"] * count, *(f"[{flag}]" for flag in flags)])
        assert f"  {synopsis}" in lines and f"      {blurb}" in lines
    for option in ("--format json|text", "--format=json|text", "--", "-h, --help"):
        assert option in out


def test_importing_the_cli_leaves_argparse_out():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, tropjac.cli; print('argparse' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


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
    assert _render(value, "json") == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [0.5, Fraction(1, 3), {1: "one"}, {None: 0}, {"a": [1, 2.0]}, [{"b": Fraction(2)}], [{1: "one"}], {1, 2}],
    ids=["float", "fraction", "int-key", "none-key", "nested-float", "nested-fraction", "nested-int-key", "set"],
)
def test_renderer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _render(value, "json")


_KERNEL_VALUES = st.one_of(
    st.builds(CyclicKernel, st.integers(1, 40), st.one_of(st.integers(1, 50), NON_INTEGRAL)),
    st.builds(
        SplitKernel,
        st.integers(1, 40),
        st.tuples(st.integers(1, 50), st.integers(1, 50)),
        st.integers(0, 40),
        st.integers(1, 60),
    ),
)


@st.composite
def nested_kernels(draw):
    """A CyclicKernel or SplitKernel nested at depth 0 to 3 in lists,
    tuples and dicts, each next to empty containers or other kernels."""
    value = draw(_KERNEL_VALUES)
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(st.one_of(st.sampled_from([[], (), {}]), _KERNEL_VALUES), max_size=3))
        at = draw(st.integers(0, len(siblings)))
        children = [*siblings[:at], value, *siblings[at:]]
        size = len(children)
        keys = draw(st.lists(st.text(_CHARACTERS, max_size=4), min_size=size, max_size=size, unique=True))
        value = draw(st.sampled_from([children, tuple(children), dict(zip(keys, children))]))
    return value


def _listing(value):
    """value with each kernel replaced by the list json.dumps writes of it:
    the divisor dicts of a CyclicKernel, the "p/q" strings of each point
    of a SplitKernel."""
    if type(value) is CyclicKernel:
        g, step = value
        return [{"position": str(j * Fraction(step)), "order": g // gcd(j, g)} for j in range(g)]
    if type(value) is SplitKernel:
        numerators, den = value.listed()
        return [[str(Fraction(n, den)) for n in point] for point in numerators]
    if type(value) is dict:
        return {key: _listing(x) for key, x in value.items()}
    if type(value) in (list, tuple):
        return [_listing(x) for x in value]
    return value


def _line_per_value_text(data, prefix=""):
    """The text report as the renderer wrote it with one string per line:
    the reference for the text that _text_lines writes as pieces."""
    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.extend(_line_per_value_text(value, f"{prefix}{key}."))
        elif type(value) in _KERNELS:
            items, opening, closing = _KERNELS[type(value)]
            lines.append(f"{prefix}{key}: [{', '.join(items(value, opening, ', ', closing))}]")
        else:
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
    return lines


@settings(max_examples=300, deadline=None)
@given(nested_kernels())
def test_renderer_writes_nested_kernels_as_their_listing(value):
    # JSON: json.dumps of the listing, at every depth.  Text: what the
    # line-per-value renderer wrote, and a TypeError where it raised one,
    # for a kernel in a list, which the text format does not write
    assert _render(value, "json") == json.dumps(_listing(value), indent=2)
    report = {"report": value}
    try:
        expected = "\n".join(_line_per_value_text(report))
    except TypeError:
        with pytest.raises(TypeError):
            _render(report, "text")
    else:
        assert _render(report, "text") == expected
