"""Values the library derives without re-running their constructor checks.

A torus, morphism or polarized variety that a construction proves valid is
wrapped by exact_lattice._Value._derived, which runs no check.  Every value
built that way, recorded while the constructions run, must equal its
rebuild through the checked public constructor of its type, and that
rebuild must raise nothing: the torus and morphism constructions on ranks
0 to 4, the Jacobian of any metric graph, and the covers' pushforward
kernel, pullback, phi and phi_tilde, on the corpus, the ladder up to degree
2001 and the strongly optimal covers of oracles.split_covers.
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings

import tropjac.cli as cli
from oracles import cover_corpus, metric_graphs, split_covers
from test_torus_category import scaled_morphisms
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    harmonic_form,
    jacobian,
)
from tropjac.exact_lattice import Matrix, _Value
from tropjac.split_jacobian import verify_split_package
from tropjac.torus_category import (
    TorusMorphism,
    _difference,
    cokernel,
    coequalizer,
    compose,
    dual_morphism,
    equalizer,
    identity_morphism,
    image,
    kernel0,
    product,
    quotient_by_subtorus,
    zero_morphism,
)


@contextmanager
def derived_values():
    """The list of every value _Value._derived builds inside the block."""
    built = []
    original = _Value.__dict__["_derived"]

    def recording(cls, *values):
        value = original.__func__(cls, *values)
        built.append(value)
        return value

    _Value._derived = classmethod(recording)
    try:
        yield built
    finally:
        _Value._derived = original


def rebuilt(value):
    """The value rebuilt through the checked constructor of its type, each
    field that is a value rebuilt first."""
    if not isinstance(value, _Value):
        return value
    return type(value)(*[rebuilt(getattr(value, name)) for name in value._fields])


def assert_each_rebuilds(built):
    assert built
    for value in built:
        assert rebuilt(value) == value


@settings(max_examples=120, deadline=None)
@given(scaled_morphisms())
def test_torus_constructions_rebuild_through_the_constructors(m):
    # every construction of torus_category on a morphism of ranks 0 to 4,
    # with rank-deficient and non-saturated f_hash and non-integral pairings
    a, b = m.source, m.target
    n = a.rank
    doubling = TorusMorphism(a, a, Matrix.identity(n) * 2, Matrix.identity(n) * 2)
    with derived_values() as built:
        dual_morphism(m)
        kernel, inclusion = kernel0(m)
        _, projection = cokernel(m)
        image(m)
        quotient_by_subtorus(a, inclusion)
        compose(m, inclusion)
        compose(projection, m)
        twice = compose(m, doubling)
        product(a, b)
        product(kernel, a)
        identity_morphism(a)
        for g in (zero_morphism(a, b), m, twice):
            _difference(m, g)
            equalizer(m, g)
            coequalizer(m, g)
    assert_each_rebuilds(built)


@settings(max_examples=80, deadline=None)
@given(metric_graphs())
def test_jacobians_rebuild_through_the_constructors(graph):
    # the period matrix of any metric graph is symmetric positive definite
    with derived_values() as built:
        jacobian(graph)
    assert len(built) == 2
    assert_each_rebuilds(built)


def _fresh(cover):
    """The cover built again, so that it derives every part anew."""
    return type(cover)(cover.curve, cover.windings, cover.dilations)


def test_corpus_and_ladder_reports_rebuild_through_the_constructors():
    # analyze --split of each corpus cover, and of the ladder dumbbells of
    # degree 3 to 2001, whose splitting isogenies have kernels of that size
    ladder = [
        DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))
        for k in (1, 2, 5, 45, 200, 1000)
    ]
    for cover in [_fresh(cover) for cover in cover_corpus()] + ladder:
        with derived_values() as built:
            cli._analysis_report(cover, True)
        assert_each_rebuilds(built)


@settings(max_examples=60, deadline=None)
@given(split_covers())
def test_split_packages_rebuild_through_the_constructors(cover):
    # phi, phi_tilde and their parts on strongly optimal ladder, dumbbell
    # and walk covers up to degree 2001
    with derived_values() as built:
        jacobian(harmonic_form(cover).graph)
        report = verify_split_package(cover)
    assert report.all_flags_hold
    assert_each_rebuilds(built)
    assert rebuilt(report.phi_morphism) == report.phi_morphism
    assert rebuilt(report.phi_tilde_morphism) == report.phi_tilde_morphism
