"""Value semantics of the package's data types.

Records are namedtuples; validated values build through a checking
constructor and take their equality, hash and repr from their fields.
Either way a value is immutable and compares by its data.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import tropjac
from oracles import degree_two_cover, degree_two_pushforward, theta_jacobian
from tropjac import (
    ComplementaryCover,
    CyclicKernel,
    DumbbellCurve,
    ExactSequence,
    GammaData,
    IntegralTorus,
    Matrix,
    MetricGraph,
    OptimalityVerdict,
    Polarization,
    ScaledPoints,
    ThetaCurve,
    TorsionDivisor,
    abel_jacobi,
    circle_graph,
    classify,
    complementary_cover,
    cover_from_splitting,
    identity_morphism,
    jacobian,
    kernel0,
    stein_factorization,
    validate_cover,
    verify_split_package,
)
from tropjac.torus_category import MorphismFlags

WALK_COVER = complementary_cover(degree_two_cover()).general

# each factory builds a fresh value from fresh, equal data
VALUES = {
    # records
    "TorsionDivisor": lambda: TorsionDivisor(Fraction(3, 2), 2),
    "CyclicKernel": lambda: CyclicKernel(3, Fraction(1, 2)),
    "ScaledPoints": lambda: ScaledPoints(((0, 0), (1, 3)), 2),
    "OptimalityVerdict": lambda: OptimalityVerdict(True, None, 1),
    "GammaData": lambda: GammaData(Fraction(3), 1, 1),
    # the walk cover is shared: covers compare by identity
    "ComplementaryCover": lambda: ComplementaryCover(
        Fraction(3, 2), (1, 1, 0), (1, -1, 0), 2, WALK_COVER
    ),
    "SplitReport": lambda: verify_split_package(degree_two_cover()),
    "SteinFactorization": lambda: stein_factorization(degree_two_pushforward()),
    "MorphismFlags": lambda: classify(degree_two_pushforward()),
    # validated values
    "IntegralTorus": theta_jacobian,
    "TorusMorphism": degree_two_pushforward,
    "Polarization": lambda: Polarization(Matrix.identity(2)),
    "PolarizedVariety": lambda: jacobian(ThetaCurve(1, 1, 1)),
    "ExactSequence": lambda: ExactSequence(
        kernel0(degree_two_pushforward())[1], degree_two_pushforward()
    ),
    "MetricGraph": lambda: circle_graph(2),
    "ThetaCurve": lambda: ThetaCurve(1, 1, 1),
    "ValidationReport": lambda: validate_cover(degree_two_cover()),
    # the hot type: an immutable, hashable value outside the _Value scheme
    "Matrix": lambda: Matrix([[2, Fraction(1, 3)], [Fraction(-4, 2), 0]]),
}

# the split report holds its flags in a dict
UNHASHABLE = {"SplitReport"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_assigned(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    assert value._fields
    for field in value._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values_and_hashes(name):
    first, second = VALUES[name](), VALUES[name]()
    assert first is not second
    assert first == second and not first != second
    if name in UNHASHABLE:
        pytest.raises(TypeError, hash, first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"ComplementaryCover"}))
def test_repr_rebuilds_an_equal_value(name):
    value = VALUES[name]()
    namespace = {**vars(tropjac), "Fraction": Fraction, "MorphismFlags": MorphismFlags}
    assert eval(repr(value), namespace) == value


def test_values_of_different_classes_are_never_equal():
    values = {name: factory() for name, factory in VALUES.items()}
    for (a, first), (b, second) in combinations(values.items(), 2):
        assert first != second, (a, b)
    # a curve model and the plain graph with the same edges differ by type
    curve = ThetaCurve(1, 1, 1)
    plain = curve.graph()
    assert type(plain) is MetricGraph
    assert (plain.vertices, plain.edges) == (curve.vertices, curve.edges)
    assert plain != curve


def test_records_are_plain_tuple_data():
    # records carry no invariants, so a record equals the plain tuple of its
    # items; only the validated values refuse other types
    assert TorsionDivisor(0, 1) == (0, 1)


# two vertices and two edges, named by their indices
TWO_EDGES = MetricGraph(["a", "b"], [("a", "b", 1), ("a", "b", 1)])
DUMBBELL = DumbbellCurve(2, 3, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntegralTorus(True, Matrix([[1]])),
        lambda: IntegralTorus(2.0, Matrix.identity(2)),
        lambda: TWO_EDGES.edge_index(True),
        lambda: abel_jacobi(TWO_EDGES, "a", (True, 0)),
        lambda: cover_from_splitting(
            DUMBBELL, identity_morphism(jacobian(DUMBBELL).torus), factor=True
        ),
    ],
    ids=["torus-rank-bool", "torus-rank-float", "edge-index", "abel-jacobi-edge", "split-factor"],
)
def test_a_bool_or_float_is_refused_where_an_int_is_required(build):
    pytest.raises(ValueError, build)


def test_covers_compare_by_identity():
    first, second = degree_two_cover(), degree_two_cover()
    assert first == first and first != second
    assert repr(first) == repr(second)
    assert repr(first) == (
        "ThetaCover(curve=ThetaCurve(1, 1, 1), windings=(1, 1, 1), "
        "dilations=(2, 1, 1), arcs=None)"
    )
