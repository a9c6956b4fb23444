"""Tests for the command-line interface."""

import json
import sys
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropjac.cli import _json, _render, parse_cover, run_command
from tropjac.curves_covers import DumbbellCover, GeneralCircleCover, ThetaCover
from tropjac.errors import NumberTooLarge, ParseError, ValidationError

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
    [0.5, Fraction(1, 3), {1: "one"}, {None: 0}, {"a": [1, 2.0]}, [{"b": Fraction(2)}], {1, 2}],
    ids=["float", "fraction", "int-key", "none-key", "nested-float", "nested-fraction", "set"],
)
def test_renderer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value, "\n")
