"""Every number the package stores or returns is an int when it is integral
and a Fraction, with denominator > 1, otherwise: the rule Matrix entries
follow, held by lengths, positions and walk data too.  == cannot tell
Fraction(1) from 1, so these tests read the types."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cover_corpus, dumbbell_covers, theta_covers
from test_presentations import _leaves
from tropjac import DumbbellCover, DumbbellCurve
from tropjac.cover_analysis import (
    kernel_length,
    pullback_kernel,
    pullback_kernel_group,
    q_gamma_profile,
    quotient_and_gamma,
)
from tropjac.curves_covers import harmonic_form, target_length, validate_cover
from tropjac.split_jacobian import complementary_cover, strong_optimality_gap


def _is_stored_form(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def stored_numbers(cover):
    """The numbers of a valid cover's data and invariants, with the walk
    data of its harmonic form and, when it splits, of its complement."""
    length = target_length(cover)
    form = harmonic_form(cover)
    found = {
        "lengths": [edge_length for _, _, edge_length in cover.source.edges],
        "target_length": length,
        "arcs": validate_cover(cover).arcs or (),
        "kernel_length": kernel_length(cover),
        "l_tilde": quotient_and_gamma(cover).l_tilde,
        "pullback_kernel": [d.position for d in pullback_kernel(cover)],
        "pullback_kernel_group": pullback_kernel_group(cover).generator,
        "q_gamma_profile": [
            q_gamma_profile(cover, t) for t in (0, 1, Fraction(1, 3), length * Fraction(1, 2), length)
        ],
        "walks": form.edge_data,
    }
    if strong_optimality_gap(cover) is None:
        comp = complementary_cover(cover).general
        found["complement"] = (comp.target_length, comp.graph.edges, comp.edge_data)
    # edges carry their vertex labels, which are not numbers
    return [leaf for leaf in _leaves(found) if not isinstance(leaf, str)]


def _misstored(cover):
    return [x for x in stored_numbers(cover) if not _is_stored_form(x)]


@pytest.mark.parametrize("start", range(4))
def test_corpus_numbers_are_ints_when_integral(start):
    # the corpus in four interleaved slices, so a failure names a smaller set
    for cover in cover_corpus()[start::4]:
        assert _misstored(cover) == [], cover


@pytest.mark.parametrize("covers", [theta_covers, dumbbell_covers], ids=["theta", "dumbbell"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_model_cover_numbers_are_ints_when_integral(covers, data):
    cover = data.draw(covers())
    assert _misstored(cover) == []


def test_pullback_kernel_generator_is_an_int_when_integral():
    # (g, g) dumbbells over a target of length g: the generator l/g is 1;
    # over 7/5 it is 7/(5g)
    for g in (1, 6, 1000):
        kernel = pullback_kernel_group(DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (g, g)))
        assert kernel == (g, 1) and type(kernel.generator) is int
        curve = DumbbellCurve(Fraction(7, 5 * g), Fraction(14, 5 * g), 1)
        kernel = pullback_kernel_group(DumbbellCover(curve, (1, 2), (g, g)))
        assert kernel == (g, Fraction(7, 5 * g)) and _is_stored_form(kernel.generator)


def test_q_gamma_profile_is_ints_when_integral():
    cover = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (4, 4))
    profile = q_gamma_profile(cover, 1)
    assert profile == (1, 1, 0)
    assert [type(x) for x in profile] == [int, int, int]
