"""Refusals of caller input: each bad argument raises its exception with
its whole message."""

import re

import pytest

from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    MetricGraph,
    ThetaCover,
    ThetaCurve,
    abel_jacobi,
    circle_graph,
    jacobian,
)
from tropjac.errors import NotProductTarget
from tropjac.exact_lattice import Matrix, hstack, rational_solve, vstack
from tropjac.split_jacobian import cover_from_splitting
from tropjac.tav import reduce_point
from tropjac.torus_category import IntegralTorus, TorusMorphism, circle

SQUARE = Matrix.identity(2)
ROW = Matrix([[1, 2]])
COLUMN = Matrix([[1], [2]])
PLANE = IntegralTorus(2, SQUARE)


def _flipped_splitting(factor):
    """cover_from_splitting along (I, diag(-1, 1)) onto the product torus
    of pairing diag(-1, 1), whose first circle has length -1."""
    curve = DumbbellCurve(1, 1, 1)
    flip = Matrix.diagonal([-1, 1])
    iso = TorusMorphism(jacobian(curve).torus, IntegralTorus(2, flip), SQUARE, flip)
    return cover_from_splitting(curve, iso, factor)


# each refusal: the call, the exception it raises and its whole message
_REFUSALS = {
    "splitting-negative-circle": (
        lambda: _flipped_splitting(1),
        NotProductTarget,
        "circle factors must have positive length",
    ),
    "matrix-ragged": (lambda: Matrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "matrix-ncols": (
        lambda: Matrix([[1, 2]], ncols=3),
        ValueError,
        "ncols disagrees with row length",
    ),
    "add": (lambda: SQUARE + ROW, ValueError, "shape mismatch in addition"),
    "subtract": (lambda: SQUARE - ROW, ValueError, "shape mismatch in subtraction"),
    "multiply": (lambda: SQUARE * ROW, ValueError, "shape mismatch in multiplication"),
    "det": (lambda: ROW.det(), ValueError, "determinant of a non-square matrix"),
    "hstack": (lambda: hstack(SQUARE, ROW), ValueError, "row count mismatch in hstack"),
    "vstack": (lambda: vstack(SQUARE, COLUMN), ValueError, "column count mismatch in vstack"),
    "rational-solve": (
        lambda: rational_solve(SQUARE, ROW),
        ValueError,
        "shape mismatch in rational_solve",
    ),
    "morphism-f-sharp": (
        lambda: TorusMorphism(PLANE, circle(1), ROW, ROW),
        ValueError,
        "f_sharp must have shape (rank source, rank target)",
    ),
    "morphism-f-hash": (
        lambda: TorusMorphism(PLANE, circle(1), COLUMN, COLUMN),
        ValueError,
        "f_hash must have shape (rank target, rank source)",
    ),
    "graph-no-vertex": (
        lambda: MetricGraph([], []),
        ValueError,
        "a metric graph needs at least one vertex",
    ),
    "graph-unhashable-end": (
        lambda: MetricGraph(["v"], [(["v"], "v", 1)]),
        ValueError,
        "edge (['v'], 'v') uses unknown vertices",
    ),
    "theta-cover-of-a-dumbbell": (
        lambda: ThetaCover(DumbbellCurve(1, 1, 1), (1, 1, 1), (2, 1, 1)),
        ValueError,
        "ThetaCover requires a ThetaCurve",
    ),
    "theta-cover-three-arcs": (
        lambda: ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1)),
        ValueError,
        "theta covers take two target arc lengths",
    ),
    "dumbbell-cover-three-windings": (
        lambda: DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1, 1), (1, 1)),
        ValueError,
        "dumbbell covers take two windings and two dilations",
    ),
    "general-cover-unaligned": (
        lambda: GeneralCircleCover(circle_graph(1), 1, []),
        ValueError,
        "edge_data must align with the graph's edges",
    ),
    "jacobian-of-an-int": (
        lambda: jacobian(3),
        ValueError,
        "jacobian expects a curve model or a MetricGraph",
    ),
    "abel-jacobi-of-an-int": (
        lambda: abel_jacobi(3, "P0", ("e", 0)),
        ValueError,
        "abel_jacobi expects a curve model or a MetricGraph",
    ),
    "point-shape": (
        lambda: reduce_point(PLANE, ROW),
        ValueError,
        "point must be a rank-length column",
    ),
    "point-length": (
        lambda: reduce_point(PLANE, [0]),
        ValueError,
        "point has the wrong number of coordinates",
    ),
}


@pytest.mark.parametrize(
    "call, error, message", list(_REFUSALS.values()), ids=list(_REFUSALS)
)
def test_caller_input_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_the_positive_factor_of_a_flipped_splitting_still_builds():
    cover = _flipped_splitting(2)
    assert cover.target_length == 1
