"""Command-line interface.

Subcommands: analyze, optimal, complement, split, optimal-factor (one
cover file) and factor (two cover files).  Cover documents are JSON objects
with a "kind" of "theta", "dumbbell", or "general_circle"; every rational
number is read and written as an exact "p/q" string (or an integer), never
a float.

The command line is read against one table, _COMMANDS, which holds each
command's number of cover files, its flags (--split for analyze and
optimal-factor), its help line and its report builder.  run_command reads
argv with _read_argv, reads the files the command asks for and calls its
builder; the help text is written from the same table.  The command comes
first; after it, options and files come in any order, and an argument
that starts with "-" is an option unless it is "-" alone, a negative
number or holds a space.  Option names are exact (no prefix of a name is
read), --format json|text and --format=json|text are both read and the
last one counts, and a lone -- ends the options.  -h or --help, as the
command or after it, prints the help to stdout and exits 0, unless a bad
--format value comes before it; the options are read in order, with the
exit codes argparse gave them.

Every cover of a genus-2 graph, a curve model or not, gets the same report
and commands.  A cover of another genus gets the genus-free analyze fields;
optimal, complement, split and optimal-factor refuse it with
UNSUPPORTED_GENUS.

optimal-factor writes the strongly optimal factor mu_tilde of a cover,
mu = psi ∘ mu_tilde (split_jacobian.optimal_factor), as a general_circle
cover document over the cover's graph, which analyze and every other
command read back as it is, followed by its degree, l_tilde, psi as the
factor command writes an isogeny, and, with --split, the split package
of that document as split writes it: in the cycle basis the document is
read back with, not the fixed basis of a theta or dumbbell input.

Reports are printed by _json, a recursive renderer that writes what
json.dumps(report, indent=2) writes, with strings quoted by the C string
encoder of the json module.  It never runs the pure-Python indent encoder,
to which json.dumps falls back whenever it is given an indent.  It makes
one call per value of the report, and a kernel is one value, written by
its item writer with no call per item.  _json and _text_lines, the
renderer of the text format, append pieces to one list per report, which
_render joins once: a kernel's item texts are joined once and copied once
more, by that join, at whatever depth the kernel sits.  The analyze
report holds the pullback kernel as its generator, a CyclicKernel; _json
writes it as the list of {"position": "p/q", "order": m} divisors that
json.dumps would write, from ints, with no Fraction, TorsionDivisor or
dict per divisor.
The orders come from the divisor sieve of cover_analysis._torsion_orders,
one slice store per divisor of the kernel's order g, and _divisors joins
each to its position.  The split report holds the kernel of the
splitting isogeny unlisted, as the SplitKernel of split_jacobian: its
order d, the steps of its two circles and the multiplier r that pairs
them.  _json and _text_lines write each point as the list of "p/q"
strings json.dumps would write of its listing, from one text table per
circle, the d multiples of that circle's step, with no Fraction, Matrix
or str() call per point: point m is the m-th TE' text and the
(m·r mod d)-th TE text.  Both kernels write their positions through one
writer, _positions: the step is put in lowest terms first, so an
integral step costs no gcd per position and any other one gcd of j and
the step's reduced denominator.  A kernel that is not cyclic with a unit
TE' coordinate, which no valid cover has, is kept as the KernelGroup of
tav and written as "kernel_group", its factors and its generators as
"p/q" strings, with no point listed.

A kernel is refused with KERNEL_TOO_LARGE when it is put in the report,
before anything is written: the pullback kernel in _analysis_report and
a SplitKernel in _split_dict, each with more than tav.MAX_LISTED_POINTS
points.  The library keeps both kernels unlisted and refuses neither.

Exit codes: 0 on success, 1 when the library rejects the input or a number
of the report is too long to print (the error code and message go to
stderr) or when the report cannot be written (a closed pipe, a full disk:
stderr gets "cannot write the report: " and the system's reason), 2 on
usage errors: a malformed command line or an unreadable file, each one
stderr line "usage error: " and the reason, with nothing on stdout.  A
cover file that is not UTF-8, or JSON nested past Python's recursion
limit, is a PARSE_ERROR.
"""

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .cover_analysis import (
    CyclicKernel,
    _torsion_orders,
    component_count,
    factor_pushforward,
    is_optimal,
    kernel_length,
    pullback_kernel_group,
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
from .errors import NumberTooLarge, ParseError, TropjacError, ValidationError
from .exact_lattice import _read_exact
from .split_jacobian import (
    SplitKernel,
    complementary_cover,
    optimal_factor,
    strong_optimality_gap,
    verify_split_package,
)
from .tav import _require_listable


class _UsageError(Exception):
    pass


# ----------------------------------------------------------- serialization


def _too_large():
    # only reached where int-to-str conversion has a digit limit (3.11+)
    return NumberTooLarge(
        "a number of the report has more than "
        f"{sys.get_int_max_str_digits()} digits, the most Python prints"
    )


def _rat(value):
    """An int or a Fraction as "p/q" (or "n"); every number that reaches it
    already is one, as Matrix entries and parsed lengths are.  A number past
    Python's digit limit raises NumberTooLarge."""
    try:
        return str(value)
    except ValueError:
        raise _too_large() from None


# ---------------------------------------------------------------- parsing


def _as_int(value, what, problems):
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{what} must be an integer")
        return 0
    return value


def _as_rational(value, what, problems):
    try:
        return _read_exact(value)
    except ValueError:
        problems.append(f'{what} must be an exact rational ("p/q" string or integer)')
        return 0


def _as_list(document, key, length, problems):
    value = document.get(key)
    if not isinstance(value, list) or (length is not None and len(value) != length):
        expected = f"a list of {length}" if length is not None else "a list"
        problems.append(f"{key} must be {expected}")
        return None
    return value


# the curve-model documents: the cover and curve types, the number of
# windings and dilations, and the optional key, a list of that size or,
# when the size is None, one number
_MODELS = {
    "theta": (ThetaCover, ThetaCurve, 3, "arcs", 2),
    "dumbbell": (DumbbellCover, DumbbellCurve, 2, "target_length", None),
}


def _parse_model(document, cover_type, curve_type, count, key, size):
    """A theta or dumbbell cover from its document, read in two passes.
    The first checks the shape of each list, the optional key's too when it
    is a list, and reports the problems in order; the second reads each
    entry, the optional key's when it is given, and reports the problems
    sorted, each once."""
    problems = []
    lengths = _as_list(document, "lengths", 3, problems)
    windings = _as_list(document, "windings", count, problems)
    dilations = _as_list(document, "dilations", count, problems)
    given = key in document
    extra = document.get(key)
    if given and size is not None:
        extra = _as_list(document, key, size, problems)
    if problems:
        raise ValidationError("; ".join(problems))
    lengths = [_as_rational(x, "lengths", problems) for x in lengths]
    windings = [_as_int(x, "windings", problems) for x in windings]
    dilations = [_as_int(x, "dilations", problems) for x in dilations]
    if given and size is None:
        extra = _as_rational(extra, key, problems)
    elif given:
        extra = [_as_rational(x, key, problems) for x in extra]
    if problems:
        raise ValidationError("; ".join(sorted(set(problems))))
    try:
        return cover_type(curve_type(*lengths), windings, dilations, extra)
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

    Malformed JSON, or JSON nested past Python's recursion limit, raises
    ParseError; schema problems and violated cover invariants raise
    ValidationError listing every diagnostic.
    """
    try:
        document = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int above the str-to-int digit limit
        raise ParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested more deeply than Python can read") from exc
    if not isinstance(document, dict):
        raise ParseError("cover document must be a JSON object")
    kind = document.get("kind")
    if type(kind) is str and kind in _MODELS:  # a list or an object cannot key a dict
        cover = _parse_model(document, *_MODELS[kind])
    elif kind == "general_circle":
        cover = _parse_general(document)
    else:
        raise ValidationError('kind must be "theta", "dumbbell", or "general_circle"')
    report = validate_cover(cover)
    if not report.valid:
        raise ValidationError("; ".join(report.violations))
    return cover


# ---------------------------------------------------------------- reports


def _kernel_group(group):
    """A KernelGroup as its factors and its generators, each the list of
    the "p/q" strings of its coordinates; no point is listed."""
    generators = [[_rat(x) for (x,) in g.entries()] for g in group.generators]
    return {"factors": list(group.factors), "generators": generators}


def _split_dict(report):
    # the split kernel as its points, written from its generator once its
    # order is checked, and any other kernel group, which no valid cover
    # has, as its generators
    kernel = report.kernel
    if type(kernel) is SplitKernel:
        _require_listable(kernel.order, "the isogeny kernel")
        key, value = "kernel_points", kernel
    else:
        key, value = "kernel_group", _kernel_group(kernel)
    return {
        "phi": report.phi.entries(),
        "phi_tilde": report.phi_tilde.entries(),
        "degree": report.degree,
        key: value,
        "flags": dict(report.flags),
    }


# the document kind of each cover type
_KINDS = {ThetaCover: "theta", DumbbellCover: "dumbbell", GeneralCircleCover: "general_circle"}


def _analysis_report(cover, include_split):
    report = {
        "kind": _KINDS[type(cover)],
        "degree": cover_degree(cover),
        "target_length": _rat(target_length(cover)),
    }
    if hasattr(cover, "windings"):
        report["windings"] = list(cover.windings)
    report["dilations"] = list(cover.dilations)
    split = {}
    if cover.source.genus == 2:
        push = pushforward_morphism(cover)
        gamma = quotient_and_gamma(cover)
        report["pushforward"] = {"f_sharp": push.f_sharp.entries(), "f_hash": push.f_hash.entries()}
        report["kernel_length"] = _rat(kernel_length(cover))
        report["gamma"] = {**gamma._asdict(), "l_tilde": _rat(gamma.l_tilde)}
        report["component_count"] = component_count(cover)
        report["optimality"] = is_optimal(cover)._asdict()
        if include_split:
            gap = strong_optimality_gap(cover)
            if gap is None:
                split["split"] = _split_dict(verify_split_package(cover))
            else:
                split["split"] = {"applicable": False, "reason": gap}
    kernel = pullback_kernel_group(cover)
    _require_listable(kernel.order, "the pullback kernel")
    report["pullback_kernel"] = kernel
    arcs = validate_cover(cover).arcs
    if arcs is not None:
        report["arcs"] = [_rat(arcs[0]), _rat(arcs[1])]
    report.update(split)
    return report


def _walks(general):
    """The walks of a GeneralCircleCover as its document lists them."""
    return [
        {"dilation": dilation, "start": _rat(start), "signed_length": _rat(signed)}
        for dilation, start, signed in general.edge_data
    ]


def _complement_report(cover):
    comp = complementary_cover(cover)
    return {
        "target_length": _rat(comp.target_length),
        "dilations": list(comp.dilations),
        "signs": list(comp.signs),
        "degree": comp.degree,
        "walks": _walks(comp.general),
    }


def _isogeny_dict(psi):
    """A circle isogeny psi, by which one pushforward factors through
    another, as the factor command writes it."""
    return {
        "factors": True,
        "a_sharp": psi.f_sharp[0, 0],
        "a_hash": psi.f_hash[0, 0],
        "from_length": _rat(psi.source.pairing[0, 0]),
        "to_length": _rat(psi.target.pairing[0, 0]),
    }


def _factor_report(first, second):
    psi = factor_pushforward(first, second)
    return {"factors": False} if psi is None else _isogeny_dict(psi)


def _optimal_factor_report(cover, include_split):
    # the factor's cover document first, so that the report is itself a
    # document that parse_cover reads, which skips the keys after it
    factor, psi = optimal_factor(cover)
    graph = factor.graph
    if any(type(vertex) is float for vertex in graph.vertices):
        # a report writes no float, and the document must be read back
        raise ValidationError("optimal-factor writes no float vertex label")
    report = {
        "kind": "general_circle",
        "vertices": list(graph.vertices),
        "edges": [[tail, head, _rat(length)] for tail, head, length in graph.edges],
        "target_length": _rat(factor.target_length),
        "walks": _walks(factor),
        "degree": cover_degree(factor),
        "l_tilde": _rat(quotient_and_gamma(cover).l_tilde),
        "psi": _isogeny_dict(psi),
    }
    if include_split:
        # the split in the coordinates of the document above, whose graph
        # is read back with its BFS cycle basis, not a curve model's basis
        printed = GeneralCircleCover(
            MetricGraph(graph.vertices, graph.edges), factor.target_length, factor.edge_data
        )
        report["split"] = _split_dict(verify_split_package(printed))
    return report


# -------------------------------------------------------------- rendering


def _positions(n, den, before, afters):
    """The texts before p/q after of the positions j·n/den, the j-th with
    the j-th text after of afters; the callers put the quotes of p/q into
    before and afters, so each text is one f-string of three pieces.  The
    step n/den is put in lowest terms first, so position j in lowest terms
    is j·n/k over den/k for k = gcd(j, den), a gcd of j and the reduced den
    (den is not sieved, as it can have large prime factors), or the int
    j·n with no gcd when den is 1.  A number past Python's digit limit
    raises ValueError, which _render turns into NumberTooLarge."""
    content = gcd(n, den)
    n, den = n // content, den // content
    if den == 1:
        return [f"{before}{position}{after}" for position, after in zip(range(0, len(afters) * n, n), afters)]
    return [
        f"{before}{j * n // k}{after}" if (k := gcd(j, den)) == den else f"{before}{j * n // k}/{den // k}{after}"
        for j, after in enumerate(afters)
    ]


def _divisors(kernel, opening, between, closing):
    """The divisors of a cyclic kernel, order g and generator num/den, as
    the texts opening "position": "p/q" between "order": m closing, written
    by _positions.  The j-th sits at j·num/den and has order g//gcd(j, g).
    The divisor sieve of cover_analysis._torsion_orders writes the tail of
    each order, from the quote that closes the position to closing, once
    per divisor of g, with no gcd per divisor."""
    g, step = kernel
    tails = _torsion_orders(g, lambda m: f'"{between}"order": {m}{closing}')
    return _positions(step.numerator, step.denominator, opening + '"position": "', tails)


def _split_points(kernel, opening, between, closing):
    """The points of a SplitKernel, as the texts opening "p/q" between
    "p/q" closing, written from its generator.  _positions writes one
    table per circle, the texts of the positions j·a/den on TE' and j·b/den
    on TE, j < d, for the steps (a, b) over den, and point m joins TE'
    text m to TE text m·r mod d, with no gcd of its own."""
    d, (a, b), r, den = kernel
    heads = _positions(a, den, opening + '"', [f'"{between}'] * d)
    tails = _positions(b, den, '"', [f'"{closing}'] * d)
    return [head + tails[m * r % d] for m, head in enumerate(heads)]


# the kernels a report holds unlisted and writes as lists, the pullback
# kernel and the split kernel, each as its generator: the writer of each
# one's items, and the brackets of an item
_KERNELS = {
    CyclicKernel: (_divisors, "{", "}"),
    SplitKernel: (_split_points, "[", "]"),
}


def _text_lines(data, pieces, prefix=""):
    """Append the lines of data to pieces, a line break before each but
    the first: a dict value is the lines of its own keys under the prefix
    key., a CyclicKernel or SplitKernel is one line that lists its items
    as json.dumps writes its listing, and any other value is one line of
    its json.dumps.  A kernel's item texts are joined once, and _render's
    join copies that text once more."""
    for key, value in data.items():
        if isinstance(value, dict):
            _text_lines(value, pieces, f"{prefix}{key}.")
            continue
        if pieces:
            pieces.append("\n")
        if type(value) in _KERNELS:
            items, opening, closing = _KERNELS[type(value)]
            pieces += (f"{prefix}{key}: [", ", ".join(items(value, opening, ", ", closing)), "]")
        else:
            pieces.append(f"{prefix}{key}: {json.dumps(value)}")


# how json.dumps writes each scalar
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, newline, pieces):
    """Append to pieces the texts that, joined, are value as
    json.dumps(value, indent=2) writes it, where newline is the line break
    and indent of the line value starts on.

    One call per value.  A CyclicKernel or SplitKernel is written by its
    item writer in _KERNELS, with no call per divisor or point: the list of
    its divisor dicts from _divisors, with no dict built, or the list of
    its points, each a list of "p/q" strings, from _split_points, with no
    list built per point.  Its item texts are joined once, as soon as they
    are written, so they are freed before _render's join copies that text
    once more.  A dict or a list appends its brackets and separators
    around the _json of each child, and a scalar is written by _SCALARS.
    Any other value, or a dict key that is not a str, raises TypeError.
    """
    kind = type(value)
    if kind in _SCALARS:
        pieces.append(_SCALARS[kind](value))
        return
    inner = newline + "  "
    if kind in _KERNELS:
        items, opening, closing = _KERNELS[kind]
        texts = items(value, opening + inner + "  ", "," + inner + "  ", inner + closing)
        pieces += ("[", inner, ("," + inner).join(texts), newline, "]") if texts else ("[]",)
        return
    if kind is dict:
        opening, closing = "{", "}"
    elif kind is list or kind is tuple:
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        pieces.append(opening + closing)
        return
    separator = opening + inner
    if kind is dict:
        for key, child in value.items():
            pieces.append(f"{separator}{_quote(key)}: ")
            _json(child, inner, pieces)
            separator = "," + inner
    else:
        for child in value:
            pieces.append(separator)
            _json(child, inner, pieces)
            separator = "," + inner
    pieces += (newline, closing)


def _render(report, fmt):
    """The report as text lines or as indented JSON, written as pieces into
    one list by _text_lines or _json and joined once.  JSON is never written
    by the pure-Python indent encoder of json.dumps; an int past Python's
    digit limit raises NumberTooLarge, and any other ValueError, which no
    report of a valid cover raises, propagates as it is."""
    pieces = []
    try:
        if fmt == "text":
            _text_lines(report, pieces)
        else:
            _json(report, "\n", pieces)
    except ValueError as exc:
        # the one ValueError of int-to-str conversion is its digit limit
        if "integer string conversion" not in str(exc):
            raise
        raise _too_large() from None
    return "".join(pieces)


# ------------------------------------------------------------------ driver


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


# each command: the number of cover files it reads, the flags it takes, its
# help line, and the builder of its report, called with the parsed covers
# and then, for each flag in order, whether it was given
_COMMANDS = {
    "analyze": (
        1, ("--split",), "full invariant report; --split adds the split-Jacobian package",
        _analysis_report,
    ),
    "optimal": (1, (), "optimality verdict", lambda cover: is_optimal(cover)._asdict()),
    "complement": (1, (), "complementary cover of a strongly optimal cover", _complement_report),
    "split": (
        1, (), "split-Jacobian verification package",
        lambda cover: _split_dict(verify_split_package(cover)),
    ),
    "optimal-factor": (
        1, ("--split",),
        "the strongly optimal factor of a cover; --split adds its split-Jacobian package",
        _optimal_factor_report,
    ),
    "factor": (2, (), "factor the first cover's pushforward through the second's", _factor_report),
}

_FORMATS = ("json", "text")
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(arg):
    """Whether arg is read as an option and not as a file, as argparse read
    it: it starts with "-" and is not "-" alone, a negative number or an
    argument with a space."""
    return arg[:1] == "-" and arg != "-" and " " not in arg and not _NEGATIVE.match(arg)


def _usage():
    """The help text: the synopsis and help line of each command of
    _COMMANDS, then the options every command takes."""
    lines = [
        "usage: tropjac COMMAND COVER.json... [OPTION...]",
        "",
        "Analyze circle covers of genus-2 metric graphs.",
        "",
        "commands:",
    ]
    for name, (count, flags, blurb, _) in _COMMANDS.items():
        synopsis = " ".join([name, *["COVER.json"] * count, *(f"[{flag}]" for flag in flags)])
        lines += (f"  {synopsis}", f"      {blurb}")
    lines += (
        "",
        "options, after the command, before or after the files:",
        "  --format json|text, --format=json|text",
        "      output format (default: json); the last one given counts",
        "  --",
        "      ends the options: every later argument is a cover file",
        "  -h, --help",
        "      print this help and exit",
    )
    return "\n".join(lines)


def _read_argv(argv):
    """The builder, the cover files, the flag values and the format that
    argv asks for, or None when it asks for help.  The command comes first;
    after it, options and files come in any order, an option name must be
    exact, the last --format wins, and a lone -- ends the options.  The
    options are read in order, as argparse read them: -h or --help, as the
    command or after it, asks for help unless a bad --format value comes
    before it, and an unknown option is refused once every option is read.
    A malformed line raises _UsageError."""
    if not argv:
        raise _UsageError(f"no command; the commands are {', '.join(_COMMANDS)}")
    name, *rest = argv
    if name in _HELP:
        return None
    if name not in _COMMANDS:
        what = "the command comes first, not" if name.startswith("-") else "unknown command"
        raise _UsageError(f"{what} {name!r}; the commands are {', '.join(_COMMANDS)}")
    count, flags, _, build = _COMMANDS[name]
    files, given, unknown, fmt = [], set(), [], "json"
    args = iter(rest)
    for arg in args:
        if arg == "--":
            files += args
            break
        if arg in _HELP:
            return None
        if arg in flags:
            given.add(arg)
        elif arg == "--format" or arg.startswith("--format="):
            fmt = next(args, None) if arg == "--format" else arg[len("--format="):]
            if fmt is None:
                raise _UsageError("--format needs a value, json or text")
            if fmt not in _FORMATS:
                raise _UsageError(f"--format is json or text, not {fmt!r}")
        elif _is_option(arg):
            unknown.append(arg)
        else:
            files.append(arg)
    if unknown:
        raise _UsageError(f"{name} takes no option {unknown[0]!r}")
    if len(files) != count:
        raise _UsageError(f"{name} reads {count} cover file{'s' * (count > 1)}, not {len(files)}")
    return build, files, [flag in given for flag in flags], fmt


def run_command(argv):
    try:
        request = _read_argv(argv)
        if request is None:
            text = _usage()
        else:
            build, files, flags, fmt = request
            covers = [parse_cover(_read_file(path)) for path in files]
            text = _render(build(*covers, *flags), fmt)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TropjacError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    try:
        print(text, flush=True)
    except OSError as exc:  # a closed pipe, a full disk
        print(f"cannot write the report: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def main():
    code = run_command(sys.argv[1:])
    if code and sys.stdout is not None:
        # nothing more is written to stdout; whatever a report that could
        # not be written left in its buffer goes to os.devnull, so that the
        # interpreter's last flush neither fails nor prints "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
