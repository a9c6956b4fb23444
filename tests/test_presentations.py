"""Metamorphic tests: the invariants of a cover do not depend on how its
source graph is presented.

Three changes of presentation keep the cover the same map of metric spaces:
re-presenting a curve model over its plain graph (the BFS cycle basis),
subdividing one edge at a new valence-2 vertex, and scaling every length by
the same factor.  The first two keep every basis-free invariant; scaling
multiplies every length-valued one by the factor.  Complement signs depend
on the cycle basis, so they are not compared.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from oracles import cover_corpus, model_covers
from tropjac.cover_analysis import (
    component_count,
    kernel_length,
    pullback_kernel,
    quotient_and_gamma,
)
from tropjac.curves_covers import (
    GeneralCircleCover,
    MetricGraph,
    cover_degree,
    harmonic_form,
    target_length,
)
from tropjac.split_jacobian import (
    complementary_cover,
    optimal_factor,
    strong_optimality_gap,
    verify_split_package,
)

SCALE = Fraction(3, 2)


def _leaves(value):
    """The scalars inside nested dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def invariants(cover, scale=1):
    """The basis-free invariants of a cover, with every length divided by
    scale, so that a cover scaled by that factor gives the same values.  A
    length or position may be an int, so scale is made a Fraction first and
    every quotient stays exact."""
    scale = Fraction(scale)
    gamma = quotient_and_gamma(cover)
    gap = strong_optimality_gap(cover)
    found = {
        "degree": cover_degree(cover),
        "target_length": target_length(cover) / scale,
        "kernel_length": kernel_length(cover) / scale,
        "component_count": component_count(cover),
        "l_tilde": gamma.l_tilde / scale,
        "a_sharp": gamma.a_sharp,
        "pullback_kernel": [(d.position / scale, d.order) for d in pullback_kernel(cover)],
        "split_gap": gap,
    }
    factor, psi = optimal_factor(cover)
    found["optimal_factor"] = (
        cover_degree(factor),
        target_length(factor) / scale,
        psi.f_sharp[0, 0],
        psi.f_hash[0, 0],
    )
    if gap is None:
        comp = complementary_cover(cover)
        found["flags"] = verify_split_package(cover).flags
        found["complement"] = (comp.degree, comp.target_length / scale)
    assert not any(type(leaf) is float for leaf in _leaves(found))
    return found


def plain(cover):
    """The harmonic form of a model cover over the plain graph of its curve."""
    form = harmonic_form(cover)
    return GeneralCircleCover(cover.curve.graph(), form.target_length, form.edge_data)


def subdivided(cover, index, at=Fraction(1, 3)):
    """The cover with edge `index` split at the fraction `at` of its length
    by a new vertex, each half walking its share of the edge's walk."""
    form = harmonic_form(cover)
    graph = form.graph
    tail, head, length = graph.edges[index]
    dilation, start, signed = form.edge_data[index]
    edges = list(graph.edges)
    edges[index : index + 1] = [(tail, "mid", at * length), ("mid", head, (1 - at) * length)]
    walks = list(form.edge_data)
    walks[index : index + 1] = [
        (dilation, start, at * signed),
        (dilation, start + at * signed, (1 - at) * signed),
    ]
    return GeneralCircleCover(
        MetricGraph(graph.vertices + ("mid",), edges), form.target_length, walks
    )


def scaled(cover, factor):
    """The cover with every length, on the graph and on the target, times factor."""
    form = harmonic_form(cover)
    graph = form.graph
    edges = [(tail, head, factor * length) for tail, head, length in graph.edges]
    walks = [(d, factor * start, factor * signed) for d, start, signed in form.edge_data]
    return GeneralCircleCover(
        MetricGraph(graph.vertices, edges), factor * form.target_length, walks
    )


def check_presentations(cover):
    expected = invariants(cover)
    assert invariants(plain(cover)) == expected, "plain graph"
    for index in range(len(cover.curve.edges)):
        assert invariants(subdivided(cover, index)) == expected, f"edge {index} subdivided"
    assert invariants(scaled(cover, SCALE), SCALE) == expected, "scaled"


@pytest.mark.parametrize("start", range(4))
def test_corpus_invariants_do_not_depend_on_the_presentation(start):
    # the corpus in four interleaved slices, so a failure names a smaller set
    for cover in cover_corpus()[start::4]:
        check_presentations(cover)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(model_covers())
def test_invariants_do_not_depend_on_the_presentation_beyond_the_corpus(cover):
    check_presentations(cover)


def test_presentations_really_change_the_graph():
    cover = cover_corpus()[0]
    assert plain(cover).source.cycle_basis() != cover.curve.cycle_basis()
    assert len(subdivided(cover, 0).source.vertices) == 3
    assert scaled(cover, SCALE).target_length == SCALE * target_length(cover)
