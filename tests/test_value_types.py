"""Value semantics of the package's data types.

Records are namedtuples; validated values build through a checking
constructor and take their equality, hash and repr from their fields.
Either way a value is immutable and compares by its data.
"""

import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

import tropjac
from oracles import degree_two_cover, degree_two_pushforward, theta_jacobian
from tropjac import (
    ComplementaryCover,
    CyclicKernel,
    DumbbellCover,
    DumbbellCurve,
    ExactSequence,
    GammaData,
    GeneralCircleCover,
    IntegralTorus,
    KernelGroup,
    Matrix,
    MetricGraph,
    OptimalityVerdict,
    Polarization,
    ScaledPoints,
    SplitKernel,
    ThetaCurve,
    TorsionDivisor,
    abel_jacobi,
    circle_graph,
    classify,
    complementary_cover,
    cover_degree,
    cover_from_splitting,
    harmonic_form,
    identity_morphism,
    isogeny_kernel_group,
    jacobian,
    kernel0,
    pushforward_morphism,
    stein_factorization,
    validate_cover,
    verify_split_package,
)
from tropjac.exact_lattice import _Immutable, _Value
from tropjac.torus_category import MorphismFlags

WALK_COVER = complementary_cover(degree_two_cover()).general
THETA_FORM = harmonic_form(degree_two_cover())

# each factory builds a fresh value from fresh, equal data
VALUES = {
    # records
    "TorsionDivisor": lambda: TorsionDivisor(Fraction(3, 2), 2),
    "CyclicKernel": lambda: CyclicKernel(3, Fraction(1, 2)),
    "ScaledPoints": lambda: ScaledPoints(((0, 0), (1, 3)), 2),
    "SplitKernel": lambda: SplitKernel(3, (2, 3), 2, 6),
    "KernelGroup": lambda: isogeny_kernel_group(verify_split_package(degree_two_cover()).phi_morphism),
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
    "DumbbellCurve": lambda: DumbbellCurve(2, 3, 1),
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


@pytest.mark.parametrize(
    "curve",
    [DumbbellCurve(2, 3, Fraction(1, 2)), ThetaCurve(Fraction(1, 2), 1, 1)],
    ids=["dumbbell", "theta"],
)
def test_a_curve_with_a_fractional_length_rebuilds_from_its_repr(curve):
    assert eval(repr(curve), {**vars(tropjac), "Fraction": Fraction}) == curve


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


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}

IMMUTABLES = sorted(name for name, build in VALUES.items() if isinstance(build(), _Immutable))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_type_is_copied():
    public = {cls.__name__ for cls in _subclasses(_Value) if not cls.__name__.startswith("_")}
    assert public <= set(IMMUTABLES)
    assert "Matrix" in IMMUTABLES


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", IMMUTABLES)
def test_a_copied_value_is_equal_and_immutable(name, how):
    value = VALUES[name]()
    copied = COPIES[how](value)
    assert type(copied) is type(value) and copied == value
    for field in value._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(copied, field, None)


# the complementary cover holds a walk cover, which compares by identity
RECORDS = sorted(
    name for name, build in VALUES.items() if isinstance(build(), tuple) and name != "ComplementaryCover"
)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", RECORDS)
def test_a_copied_record_is_equal(name, how):
    value = VALUES[name]()
    copied = COPIES[how](value)
    assert type(copied) is type(value) and copied == value


def test_a_split_kernel_lists_its_points_from_its_generator():
    # order 3, steps 2 and 3 over 6, multiplier 2: the m-th multiple of 2/6
    # on TE' pairs with the (2m mod 3)-th multiple of 3/6 on TE
    kernel = SplitKernel(3, (2, 3), 2, 6)
    assert kernel.listed() == ScaledPoints(((0, 0), (2, 6), (4, 3)), 6)
    # a kernel of one point has multiplier 0
    assert SplitKernel(1, (5, 7), 0, 35).listed() == ScaledPoints(((0, 0),), 35)
    assert isinstance(kernel, tuple) and isinstance(kernel.listed(), ScaledPoints)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_graph_derives_its_cycles_again(how):
    graph = MetricGraph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("c", "a", 3), ("b", "b", 1)])
    assert graph.cycle_basis()
    copied = COPIES[how](graph)
    assert copied == graph and vars(copied) == {}
    assert copied.cycle_basis() == graph.cycle_basis()
    assert copied.period_matrix() == graph.period_matrix()


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize(
    "build",
    [
        degree_two_cover,
        lambda: DumbbellCover(DumbbellCurve(Fraction(1, 2), Fraction(1, 3), 1), (1, 1), (2, 3)),
        # the theta cover's walks over the plain theta graph
        lambda: GeneralCircleCover(
            ThetaCurve(1, 1, 1).graph(), THETA_FORM.target_length, THETA_FORM.edge_data
        ),
    ],
    ids=["theta", "dumbbell", "general"],
)
def test_a_copied_cover_has_the_same_invariants(build, how):
    # covers compare by identity, so a copy is checked through what it
    # derives; the parts the original kept are not copied, but derived again
    cover = build()
    report = verify_split_package(cover)
    copied = COPIES[how](cover)
    assert type(copied) is type(cover) and copied is not cover
    assert not vars(copied)
    assert repr(copied) == repr(cover)
    assert cover_degree(copied) == cover_degree(cover)
    assert pushforward_morphism(copied) == pushforward_morphism(cover)
    assert verify_split_package(copied) == report
    for field in cover._fields:
        with pytest.raises(AttributeError):
            setattr(copied, field, None)
