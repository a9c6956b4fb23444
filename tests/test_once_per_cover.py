"""Each cover derives its invariants once: one immutable analysis per cover."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropjac.curves_covers as curves_covers
from oracles import degree_two_cover, dumbbell_covers, theta_covers
from tropjac.cli import run_command
from tropjac.cover_analysis import (
    component_count,
    is_optimal,
    kernel_length,
    pullback_kernel,
    pullback_morphism,
    pushforward_morphism,
    quotient_and_gamma,
)
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    ThetaCover,
    circle_graph,
    cover_degree,
    harmonic_form,
    target_length,
    validate_cover,
)
from tropjac.errors import TropjacError
from tropjac.split_jacobian import (
    complementary_cover,
    complementary_pushforward,
    splitting_isogeny,
    strong_optimality_gap,
    verify_split_package,
)

THETA = {"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [2, 1, 1]}
DUMBBELL = {"kind": "dumbbell", "lengths": ["1/2", "1/3", 1], "windings": [1, 1], "dilations": [2, 3]}
GENERAL = {
    "kind": "general_circle",
    "target_length": "1",
    "vertices": ["v"],
    "edges": [["v", "v", "2"]],
    "walks": [{"dilation": 2, "start": "0", "signed_length": "4"}],
}


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counting(*args):
        counter[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize(
    "document, pushforwards",
    # the general cover gets the reduced report, which needs no pushforward
    [(THETA, 1), (DUMBBELL, 1), (GENERAL, 0)],
    ids=["theta", "dumbbell", "general"],
)
def test_analyze_split_validates_and_pushes_forward_once(
    document, pushforwards, tmp_path, monkeypatch, capsys
):
    calls = Counter()
    for cover_type in (ThetaCover, DumbbellCover, GeneralCircleCover):
        _count_calls(monkeypatch, cover_type, "_validate", calls)
    _count_calls(monkeypatch, curves_covers, "jacobian", calls)
    _count_calls(monkeypatch, curves_covers, "_universal_row", calls)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    assert run_command(["analyze", str(path), "--split"]) == 0
    report = json.loads(capsys.readouterr().out)
    if pushforwards:
        assert all(report["split"]["flags"].values())
    assert calls == Counter(
        _validate=1, jacobian=pushforwards, _universal_row=pushforwards
    )


def test_covers_and_what_they_keep_refuse_assignment():
    theta = degree_two_cover()
    dumbbell = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))
    general = GeneralCircleCover(circle_graph(2), 1, [(1, 0, 2)])
    report = validate_cover(theta)
    gamma = quotient_and_gamma(theta)
    push = pushforward_morphism(theta)
    for value, attribute in (
        (theta, "windings"),
        (theta, "arcs"),
        (dumbbell, "target_length"),
        (general, "edge_data"),
        (theta.curve, "edges"),
        (general.graph, "vertices"),
        (report, "violations"),
        (gamma, "a_sharp"),
        (push, "f_sharp"),
        (push.source, "pairing"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
    assert isinstance(report.violations, tuple)
    assert isinstance(theta.curve.edges, tuple) and isinstance(general.edge_data, tuple)
    assert validate_cover(theta) is report


def _report(cover):
    report = validate_cover(cover)
    return report.violations, report.degree, report.arcs


def _walks(form):
    return form.graph, form.target_length, form.edge_data


def _verdict(cover):
    verdict = is_optimal(cover)
    return verdict.kernel_connected, verdict.dumbbell_gcd_free, verdict.component_count, verdict.note


def _complement(cover):
    comp = complementary_cover(cover)
    return comp.target_length, comp.dilations, comp.signs, comp.degree, _walks(comp.general)


def _split(cover):
    report = verify_split_package(cover)
    return report.phi, report.phi_tilde, report.kernel_points, report.degree, report.flags


# every public invariant of a cover, as a value that compares by content
INVARIANTS = {
    "validate_cover": _report,
    "cover_degree": cover_degree,
    "target_length": target_length,
    "harmonic_form": lambda cover: _walks(harmonic_form(cover)),
    "pushforward_morphism": pushforward_morphism,
    "pullback_morphism": pullback_morphism,
    "kernel_length": kernel_length,
    "quotient_and_gamma": quotient_and_gamma,
    "component_count": component_count,
    "is_optimal": _verdict,
    "pullback_kernel": pullback_kernel,
    "strong_optimality_gap": strong_optimality_gap,
    "complementary_pushforward": complementary_pushforward,
    "splitting_isogeny": splitting_isogeny,
    "complementary_cover": _complement,
    "verify_split_package": _split,
}


def _rebuilt(cover):
    """A fresh cover from the same data, with nothing derived yet."""
    if isinstance(cover, ThetaCover):
        return ThetaCover(cover.curve, cover.windings, cover.dilations, cover.arcs)
    return DumbbellCover(cover.curve, cover.windings, cover.dilations, cover.target_length)


def _outcome(invariant, cover):
    try:
        return INVARIANTS[invariant](cover)
    except TropjacError as exc:  # NotOptimal for the split invariants
        return type(exc), str(exc)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    st.one_of(theta_covers(), dumbbell_covers()),
    st.permutations(sorted(INVARIANTS)),
)
def test_invariants_do_not_depend_on_query_order(cover, order):
    answers = {invariant: _outcome(invariant, cover) for invariant in order}
    fresh = _rebuilt(cover)
    for invariant in sorted(INVARIANTS):
        assert answers[invariant] == _outcome(invariant, fresh), invariant
