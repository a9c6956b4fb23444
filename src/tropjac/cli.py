"""Command-line interface.

Subcommands: analyze, optimal, complement, split (one cover file) and
factor (two cover files).  Cover documents are JSON objects with a "kind"
of "theta", "dumbbell", or "general_circle"; every rational number is read
and written as an exact "p/q" string (or an integer), never a float.

Exit codes: 0 on success, 1 when the library rejects the input (the error
code and message go to stderr), 2 on usage errors.
"""

import argparse
import json
import sys
from fractions import Fraction

from .cover_analysis import (
    component_count,
    factor_pushforward,
    is_optimal,
    kernel_length,
    pullback_kernel,
    pushforward_morphism,
    quotient_and_gamma,
)
from .curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    MetricGraph,
    ThetaCover,
    ThetaCurve,
    cover_degree,
    target_length,
    validate_cover,
)
from .errors import ParseError, TropjacError, ValidationError
from .split_jacobian import (
    complementary_cover,
    strong_optimality_gap,
    verify_split_package,
)


class _UsageError(Exception):
    pass


# ----------------------------------------------------------- serialization


def _rat(value):
    return str(Fraction(value))


def _point(column):
    return [_rat(column[i, 0]) for i in range(column.nrows)]


# ---------------------------------------------------------------- parsing


def _as_int(value, what, problems):
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{what} must be an integer")
        return 0
    return value


def _as_rational(value, what, problems):
    if isinstance(value, bool) or isinstance(value, float):
        problems.append(f'{what} must be an exact rational ("p/q" string or integer)')
        return Fraction(0)
    try:
        return Fraction(value) if isinstance(value, int) else Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        problems.append(f'{what} must be an exact rational ("p/q" string or integer)')
        return Fraction(0)


def _as_list(document, key, length, problems):
    value = document.get(key)
    if not isinstance(value, list) or (length is not None and len(value) != length):
        expected = f"a list of {length}" if length is not None else "a list"
        problems.append(f"{key} must be {expected}")
        return None
    return value


def _parse_theta(document):
    problems = []
    lengths = _as_list(document, "lengths", 3, problems)
    windings = _as_list(document, "windings", 3, problems)
    dilations = _as_list(document, "dilations", 3, problems)
    arcs = None
    if "arcs" in document:
        arcs = _as_list(document, "arcs", 2, problems)
    if problems:
        raise ValidationError("; ".join(problems))
    lengths = [_as_rational(x, "lengths", problems) for x in lengths]
    windings = [_as_int(x, "windings", problems) for x in windings]
    dilations = [_as_int(x, "dilations", problems) for x in dilations]
    if arcs is not None:
        arcs = [_as_rational(x, "arcs", problems) for x in arcs]
    if problems:
        raise ValidationError("; ".join(sorted(set(problems))))
    try:
        return ThetaCover(ThetaCurve(*lengths), windings, dilations, arcs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_dumbbell(document):
    problems = []
    lengths = _as_list(document, "lengths", 3, problems)
    windings = _as_list(document, "windings", 2, problems)
    dilations = _as_list(document, "dilations", 2, problems)
    if problems:
        raise ValidationError("; ".join(problems))
    lengths = [_as_rational(x, "lengths", problems) for x in lengths]
    windings = [_as_int(x, "windings", problems) for x in windings]
    dilations = [_as_int(x, "dilations", problems) for x in dilations]
    length = None
    if "target_length" in document:
        length = _as_rational(document["target_length"], "target_length", problems)
    if problems:
        raise ValidationError("; ".join(sorted(set(problems))))
    try:
        return DumbbellCover(DumbbellCurve(*lengths), windings, dilations, length)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_general(document):
    problems = []
    vertices = _as_list(document, "vertices", None, problems)
    edges = _as_list(document, "edges", None, problems)
    walks = _as_list(document, "walks", None, problems)
    if "target_length" not in document:
        problems.append("target_length is required")
    if problems:
        raise ValidationError("; ".join(problems))
    length = _as_rational(document["target_length"], "target_length", problems)
    parsed_edges = []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 3:
            problems.append("edges must be [tail, head, length] triples")
            continue
        parsed_edges.append(
            (edge[0], edge[1], _as_rational(edge[2], "edge length", problems))
        )
    parsed_walks = []
    for walk in walks:
        if not isinstance(walk, dict):
            problems.append("walks must be objects")
            continue
        parsed_walks.append(
            (
                _as_int(walk.get("dilation"), "walk dilation", problems),
                _as_rational(walk.get("start", 0), "walk start", problems),
                _as_rational(walk.get("signed_length", 0), "walk signed_length", problems),
            )
        )
    if problems:
        raise ValidationError("; ".join(sorted(set(problems))))
    try:
        graph = MetricGraph(vertices, parsed_edges)
        cover = GeneralCircleCover(graph, length, parsed_walks)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return cover


def parse_cover(text):
    """Parse and fully validate a JSON cover document.

    Malformed JSON raises ParseError; schema problems and violated cover
    invariants raise ValidationError listing every diagnostic.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("cover document must be a JSON object")
    kind = document.get("kind")
    if kind == "theta":
        cover = _parse_theta(document)
    elif kind == "dumbbell":
        cover = _parse_dumbbell(document)
    elif kind == "general_circle":
        cover = _parse_general(document)
    else:
        raise ValidationError('kind must be "theta", "dumbbell", or "general_circle"')
    report = validate_cover(cover)
    if not report.valid:
        raise ValidationError("; ".join(report.violations))
    return cover


# ---------------------------------------------------------------- reports


def _verdict_dict(verdict):
    return {
        "kernel_connected": verdict.kernel_connected,
        "dumbbell_gcd_free": verdict.dumbbell_gcd_free,
        "component_count": verdict.component_count,
        "note": verdict.note,
    }


def _torsion_list(divisors):
    return [{"position": _rat(d.position), "order": d.order} for d in divisors]


def _split_dict(report):
    return {
        "phi": report.phi.entries(),
        "phi_tilde": report.phi_tilde.entries(),
        "degree": report.degree,
        "kernel_points": [_point(p) for p in report.kernel_points],
        "flags": dict(report.flags),
    }


def _analysis_report(cover, include_split):
    if isinstance(cover, GeneralCircleCover):
        return {
            "kind": "general_circle",
            "degree": cover_degree(cover),
            "target_length": _rat(cover.target_length),
            "dilations": list(cover.dilations),
            "pullback_kernel": _torsion_list(pullback_kernel(cover)),
        }
    push = pushforward_morphism(cover)
    gamma = quotient_and_gamma(cover)
    report = {
        "kind": "theta" if isinstance(cover, ThetaCover) else "dumbbell",
        "degree": cover_degree(cover),
        "target_length": _rat(target_length(cover)),
        "windings": list(cover.windings),
        "dilations": list(cover.dilations),
        "pushforward": {
            "f_sharp": push.f_sharp.entries(),
            "f_hash": push.f_hash.entries(),
        },
        "kernel_length": _rat(kernel_length(cover)),
        "gamma": {
            "l_tilde": _rat(gamma.l_tilde),
            "a_sharp": gamma.a_sharp,
            "a_hash": int(gamma.a_hash),
        },
        "component_count": component_count(cover),
        "optimality": _verdict_dict(is_optimal(cover)),
        "pullback_kernel": _torsion_list(pullback_kernel(cover)),
    }
    arcs = validate_cover(cover).arcs
    if arcs is not None:
        report["arcs"] = [_rat(arcs[0]), _rat(arcs[1])]
    if include_split:
        gap = strong_optimality_gap(cover)
        if gap is None:
            report["split"] = _split_dict(verify_split_package(cover))
        else:
            report["split"] = {"applicable": False, "reason": gap}
    return report


def _require_model_cover(cover, command):
    if isinstance(cover, GeneralCircleCover):
        raise ValidationError(
            f"the {command} command requires a theta or dumbbell cover"
        )
    return cover


def _complement_report(cover):
    comp = complementary_cover(cover)
    return {
        "target_length": _rat(comp.target_length),
        "dilations": list(comp.dilations),
        "signs": list(comp.signs),
        "degree": comp.degree,
        "walks": [
            {
                "dilation": dilation,
                "start": _rat(start),
                "signed_length": _rat(signed),
            }
            for dilation, start, signed in comp.general.edge_data
        ],
    }


def _factor_report(first, second):
    psi = factor_pushforward(first, second)
    if psi is None:
        return {"factors": False}
    return {
        "factors": True,
        "a_sharp": psi.f_sharp[0, 0],
        "a_hash": psi.f_hash[0, 0],
        "from_length": _rat(psi.source.pairing[0, 0]),
        "to_length": _rat(psi.target.pairing[0, 0]),
    }


# -------------------------------------------------------------- rendering


def _text_lines(data, prefix=""):
    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.extend(_text_lines(value, f"{prefix}{key}."))
        else:
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
    return lines


def _render(report, fmt):
    if fmt == "text":
        return "\n".join(_text_lines(report))
    return json.dumps(report, indent=2)


# ------------------------------------------------------------------ driver


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tropjac",
        description="Analyze circle covers of genus-2 metric graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    analyze = subparsers.add_parser(
        "analyze", parents=[common], help="full invariant report for one cover"
    )
    analyze.add_argument("file")
    analyze.add_argument(
        "--split",
        action="store_true",
        help="include the split-Jacobian package when applicable",
    )
    for name, blurb in (
        ("optimal", "optimality verdict for one cover"),
        ("complement", "complementary cover of a strongly optimal cover"),
        ("split", "split-Jacobian verification package"),
    ):
        sub = subparsers.add_parser(name, parents=[common], help=blurb)
        sub.add_argument("file")
    factor = subparsers.add_parser(
        "factor",
        parents=[common],
        help="factor the first cover's pushforward through the second's",
    )
    factor.add_argument("file")
    factor.add_argument("file2")
    return parser


def run_command(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cover = parse_cover(_read_file(args.file))
        if args.command == "analyze":
            report = _analysis_report(cover, args.split)
        elif args.command == "optimal":
            _require_model_cover(cover, "optimal")
            report = _verdict_dict(is_optimal(cover))
        elif args.command == "complement":
            _require_model_cover(cover, "complement")
            report = _complement_report(cover)
        elif args.command == "split":
            _require_model_cover(cover, "split")
            report = _split_dict(verify_split_package(cover))
        else:
            _require_model_cover(cover, "factor")
            second = parse_cover(_read_file(args.file2))
            _require_model_cover(second, "factor")
            report = _factor_report(cover, second)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TropjacError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    print(_render(report, args.format))
    return 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
