"""Metric graphs, genus-2 curve models, and their circle covers.

Every cover lowers to one form, a GeneralCircleCover: a metric graph with a
cycle basis and one affine walk per edge (dilation, start, signed length).
harmonic_form returns that form, and every invariant is derived from it, so
the theta and dumbbell models supply only their graph, their fixed cycle
basis and their realizability equations.  One builder, _walk_form, makes
the form of a curve model and every walk cover split_jacobian builds from
a universal cover row: a cover is fixed by its slopes and its target length.

A plain MetricGraph builds its BFS spanning tree once, when it is
constructed, and uses the fundamental cycles of that tree.  Every graph
builds its Jacobian once, on first use, so abel_jacobi and every cover of
the graph share one period matrix.
The curve models keep fixed bases, so that their coordinates never depend
on a tree.  On the theta graph the edge e runs from P0 to P1 while e1 and e2
run from P1 back to P0, and the basis is B1 = e + e2, B2 = e2 - e1.  The
dumbbell uses its two loops; the bridge lies in no cycle.

Each basis cycle is held once, sparse: its nonzero (edge index,
coefficient) pairs, led by a private edge that lies in no other basis cycle
and has coefficient ±1 (the non-tree edge of a fundamental cycle; e, e1 and
the loops on the curve models).  Only this module reads those pairs.  The
period matrix, the universal cover row of a cover's slopes, its inverse
(the slopes of a row) and the Abel-Jacobi map visit only the edges that
lie on a cycle, never a vector of every edge per cycle; cycle_basis builds
the dense vectors on request.  For the edge-by-cycle coefficient matrix C
the period matrix is C^T diag(len) C, which is [[l_e + l_e2, l_e2], [l_e2,
l_e1 + l_e2]] for the theta graph and diag(l_loop1, l_loop2) for the
dumbbell.

A cover of a circle by a curve model is described combinatorially by winding
numbers (how often each edge walk wraps the target) and dilation factors (the
integer slope on each edge); the target arc lengths of a theta cover may be
given explicitly or derived from the metric realizability equations.

Covers and graphs are immutable.  A cover is its own analysis: it derives
each part on first use and keeps it for its lifetime, the validation report,
the harmonic form, the pushforward mu_* and what is read off it.  Every
public invariant here, in cover_analysis and in split_jacobian reads those
parts, so nothing is derived twice for one cover.  No kept part refers back
to its cover, so reference counting alone frees a cover.  The gamma data are
the contents of mu_*: a_sharp = gcd(f_sharp), a_hash = gcd(f_hash), and
l_tilde = l·a_hash/a_sharp by the pairing law of the quotient isogeny.
"""

from collections import deque, namedtuple
from functools import cached_property
from math import gcd

from .errors import InvalidCover, OffsetOutOfRange, UnsupportedGenus
from .exact_lattice import Matrix, _Immutable, _quotient, _read_exact, _Value
from .tav import PolarizedVariety, Polarization, reduce_point
from .torus_category import IntegralTorus, TorusMorphism, circle, dual_morphism, kernel0


def _rational(value, what):
    try:
        return _read_exact(value)
    except ValueError as exc:
        raise ValueError(f"{what} must be an exact rational, {exc}") from exc


def _positive_rational(value, what):
    result = _rational(value, what)
    if result <= 0:
        raise ValueError(f"{what} must be positive")
    return result


def _nonnegative_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer")
    return value


class MetricGraph(_Value):
    """An immutable connected graph with positive rational edge lengths.  Its
    edges are named by their index, and its cycle basis comes from the BFS
    tree, which the graph builds once, when it is constructed, and keeps
    with the basis and, from its first use, its Jacobian."""

    __slots__ = ("vertices", "edges", "__dict__")  # the tree, basis and Jacobian live in __dict__

    EDGES = None  # edge names; None names each edge by its index

    def __init__(self, vertices, edges):
        if not vertices:
            raise ValueError("a metric graph needs at least one vertex")
        try:
            labels = set(vertices)
        except TypeError:
            raise ValueError("vertex labels must be hashable") from None
        if len(labels) != len(vertices):
            raise ValueError("vertex labels must be distinct")
        vertices = tuple(vertices)
        cleaned = []
        for tail, head, length in edges:
            try:
                known = tail in labels and head in labels
            except TypeError:  # an unhashable end is no label
                known = False
            if not known:
                raise ValueError(f"edge ({tail!r}, {head!r}) uses unknown vertices")
            cleaned.append((tail, head, _positive_rational(length, "edge length")))
        self._set(vertices=vertices, edges=tuple(cleaned))
        if len(self._root_paths) != len(self.vertices):
            raise ValueError("metric graph must be connected")

    @cached_property
    def _root_paths(self):
        """The deterministic BFS tree from the first vertex, in BFS order:
        maps each vertex it reaches to its parent edge, (parent, edge index,
        sign) with sign 1 when the edge runs from the parent, and the root
        to None.  Each vertex's edges are scanned in edge-index order, tail
        end first, so the tree depends only on the input order."""
        adjacent = {vertex: [] for vertex in self.vertices}
        for index, (tail, head, _) in enumerate(self.edges):
            adjacent[tail].append((head, index, 1))
            adjacent[head].append((tail, index, -1))
        root = self.vertices[0]
        tree = {root: None}
        frontier = deque([root])
        while frontier:
            v = frontier.popleft()
            for far, index, sign in adjacent[v]:
                if far not in tree:
                    tree[far] = (v, index, sign)
                    frontier.append(far)
        return tree

    @property
    def genus(self):
        return len(self.edges) - len(self.vertices) + 1

    def edge_index(self, edge):
        """Index of an edge given by its name, or by its index if unnamed."""
        if self.EDGES is not None:
            if edge in self.EDGES:
                return self.EDGES.index(edge)
        elif type(edge) is int and 0 <= edge < len(self.edges):
            return edge
        raise ValueError(f"unknown edge {edge!r}")

    def tree_path(self, start, end):
        """The tree path from start to end as {edge index: coefficient},
        nonzero coefficients only: the path from the root to end less the
        path from the root to start, each walked up the parent edges.  A
        vertex not on the graph raises ValueError naming it."""
        tree = self._root_paths
        path = {}
        for vertex, direction in ((end, 1), (start, -1)):
            if vertex not in tree:
                raise ValueError(f"unknown vertex {vertex!r}")
            while (step := tree[vertex]) is not None:
                vertex, index, sign = step
                path[index] = path.get(index, 0) + direction * sign
        return {index: coefficient for index, coefficient in path.items() if coefficient}

    @cached_property
    def _cycles(self):
        """One fundamental cycle per non-tree edge, in input edge order, as
        its (edge index, coefficient) pairs: the edge, with coefficient 1,
        then the tree path from its head back to its tail."""
        tree_edges = {step[1] for step in self._root_paths.values() if step is not None}
        return tuple(
            ((index, 1), *self.tree_path(head, tail).items())
            for index, (tail, head, _) in enumerate(self.edges)
            if index not in tree_edges
        )

    def cycle_basis(self):
        """The cycle basis as a list of dense edge-coefficient tuples, one
        entry per edge, built on request from the sparse cycles."""
        basis = []
        for cycle in self._cycles:
            dense = [0] * len(self.edges)
            for index, coefficient in cycle:
                dense[index] = coefficient
            basis.append(tuple(dense))
        return basis

    def period_matrix(self):
        """The Gram matrix C^T diag(len) C of the cycle basis: each pair of
        cycles is summed over the edges of one of them."""
        cycles = [dict(cycle) for cycle in self._cycles]
        rows = [
            [
                sum(ci.get(index, 0) * c * self.edges[index][2] for index, c in cj)
                for cj in self._cycles
            ]
            for ci in cycles
        ]
        return Matrix(rows, ncols=len(rows))

    @cached_property
    def _jacobian(self):
        """The Jacobian of the graph, built once: see jacobian.  The period
        matrix is the Gram matrix of independent cycles under the positive
        edge lengths, so it is symmetric positive definite: the torus and
        the variety are valid as built, and are not checked again."""
        torus = IntegralTorus._derived(self.genus, self.period_matrix())
        return PolarizedVariety._derived(torus, Polarization(Matrix.identity(self.genus)))


def circle_graph(length):
    """A circle of the given length as a one-vertex, one-loop metric graph."""
    return MetricGraph(["v"], [("v", "v", length)])


class _CurveModel(MetricGraph):
    """A genus-2 graph on the vertices P0 and P1 with named edges and a fixed
    cycle basis.  Subclasses set EDGES, ENDS (tail and head of each edge)
    and _cycles (the (edge index, coefficient) pairs of each basis cycle,
    its private edge first), in place of the BFS basis."""

    __slots__ = ()

    def __init__(self, lengths):
        super().__init__(
            ["P0", "P1"],
            [
                (tail, head, _positive_rational(length, f"l_{name}"))
                for name, (tail, head), length in zip(self.EDGES, self.ENDS, lengths)
            ],
        )

    def graph(self):
        """The same metric graph with its BFS cycle basis."""
        return MetricGraph(self.vertices, self.edges)

    def __repr__(self):
        lengths = ", ".join(repr(length) for _, _, length in self.edges)
        return f"{type(self).__name__}({lengths})"


def _edge_length(index):
    return property(lambda curve: curve.edges[index][2])


class ThetaCurve(_CurveModel):
    """Genus-2 theta graph: vertices P0, P1; edge e from P0 to P1 and edges
    e1, e2 from P1 to P0."""

    __slots__ = ()

    EDGES = ("e", "e1", "e2")
    ENDS = (("P0", "P1"), ("P1", "P0"), ("P1", "P0"))
    _cycles = (((0, 1), (2, 1)), ((1, -1), (2, 1)))  # B1 = e + e2, B2 = e2 - e1

    l_e, l_e1, l_e2 = _edge_length(0), _edge_length(1), _edge_length(2)

    def __init__(self, l_e, l_e1, l_e2):
        super().__init__((l_e, l_e1, l_e2))


class DumbbellCurve(_CurveModel):
    """Genus-2 dumbbell: loops at P0 and P1 joined by a bridge."""

    __slots__ = ()

    EDGES = ("loop1", "loop2", "bridge")
    ENDS = (("P0", "P0"), ("P1", "P1"), ("P0", "P1"))
    _cycles = (((0, 1),), ((1, 1),))  # the loops; the bridge lies in no cycle

    l_loop1, l_loop2, l_bridge = _edge_length(0), _edge_length(1), _edge_length(2)

    def __init__(self, l_loop1, l_loop2, l_bridge):
        super().__init__((l_loop1, l_loop2, l_bridge))


def _walk_form(graph, slopes, length):
    """The GeneralCircleCover of the graph over a circle of the given length
    whose edges run at the given integer slopes.  The first vertex lies over
    0 and every other vertex over the integral of the slopes along its BFS
    tree path, built in BFS order from the vertex's parent."""
    positions = {}
    for vertex, step in graph._root_paths.items():
        if step is None:
            positions[vertex] = 0
        else:
            parent, index, sign = step
            positions[vertex] = positions[parent] + sign * slopes[index] * graph.edges[index][2]
    return GeneralCircleCover(
        graph,
        length,
        [
            (abs(slope), positions[tail], slope * edge_length)
            for slope, (tail, _, edge_length) in zip(slopes, graph.edges)
        ],
    )


class _CircleCover(_Immutable):
    """Base of the cover types.  A cover never changes, so each part it
    derives on first use and keeps can never go stale.

    _report holds for any cover; every other part exists only for a valid
    cover, and reading it raises InvalidCover otherwise.  The pushforward
    mu_* : Jac(source) -> C(l) is read off the harmonic form: f_sharp is the
    universal cover row of the slopes, and f_hash follows from the pairing
    law f_sharp^T P = l·f_hash.  The kernel circle, whose inclusion holds
    the kernel direction, and the pullback mu^* are then read off mu_*, and
    the gamma data off the contents of f_sharp and f_hash alone, with no
    kernel circle.
    """

    @property
    def source(self):
        """The source graph; its cycle basis fixes the Jacobian coordinates
        of every invariant.  A curve model is its own harmonic form's graph."""
        return self.curve

    @cached_property
    def _report(self):
        return self._validate()

    @cached_property
    def _form(self):
        return self._lower(require_valid(self))

    @cached_property
    def _pushforward(self):
        form = self._form
        torus = jacobian(form.graph).torus
        f_sharp = Matrix.column(_universal_row(form.graph, form.slopes))
        f_hash = f_sharp.transpose() * torus.pairing * _quotient(1, form.target_length)
        return TorusMorphism(torus, circle(form.target_length), f_sharp, f_hash)

    @cached_property
    def _kernel(self):
        """kernel0 of the pushforward: the kernel circle and its inclusion,
        whose f_hash is the canonical basis of ker(f_hash) of mu_*.  It is a
        circle only on a genus-2 graph, so every invariant read off it is
        refused here for any other genus."""
        _require_genus_2(self._form.graph)
        return kernel0(self._pushforward)

    @cached_property
    def _gamma(self):
        """Quotient data of the pushforward kernel (see
        cover_analysis.quotient_and_gamma): the contents of f_sharp and
        f_hash, and l_tilde from the pairing law of the quotient isogeny."""
        _require_genus_2(self._form.graph)
        push = self._pushforward
        a_sharp = gcd(*push.f_sharp.column_tuple(0))
        a_hash = gcd(*push.f_hash.row_tuple(0))
        l_tilde = _quotient(push.target.pairing[0, 0] * a_hash, a_sharp)
        return GammaData(l_tilde, a_sharp, a_hash)

    @cached_property
    def _pullback(self):
        return dual_morphism(self._pushforward)


class ThetaCover(_CircleCover):
    """Cover data of a theta curve over a circle: winding numbers
    (n, n1, n2), dilations (d_e, d_e1, d_e2), and optionally the two target
    arc lengths (derived from the realizability equations when omitted)."""

    __slots__ = ("curve", "windings", "dilations", "arcs")

    def __init__(self, curve, windings, dilations, arcs=None):
        if not isinstance(curve, ThetaCurve):
            raise ValueError("ThetaCover requires a ThetaCurve")
        windings = tuple(_nonnegative_int(n, "winding") for n in windings)
        dilations = tuple(_nonnegative_int(d, "dilation") for d in dilations)
        if len(windings) != 3 or len(dilations) != 3:
            raise ValueError("theta covers take three windings and three dilations")
        if arcs is not None:
            arcs = tuple(_rational(a, "target arc length") for a in arcs)
            if len(arcs) != 2:
                raise ValueError("theta covers take two target arc lengths")
        self._set(curve=curve, windings=windings, dilations=dilations, arcs=arcs)

    def _validate(self):
        return ValidationReport(*_theta_violations(self))

    def _lower(self, report):
        # P1 lies over d_e·l_e, which is l~1 modulo l~1 + l~2 by the
        # realizability equation on e
        return _walk_form(self.curve, self.dilations, sum(report.arcs))


class DumbbellCover(_CircleCover):
    """Cover data of a dumbbell over a circle: windings (n1, n2), dilations
    (d1, d2), contracted bridge, and the target circle length (derived from
    the loop equations when omitted)."""

    __slots__ = ("curve", "windings", "dilations", "target_length")

    def __init__(self, curve, windings, dilations, target_length=None):
        if not isinstance(curve, DumbbellCurve):
            raise ValueError("DumbbellCover requires a DumbbellCurve")
        self._set(
            curve=curve,
            windings=tuple(_nonnegative_int(n, "winding") for n in windings),
            dilations=tuple(_nonnegative_int(d, "dilation") for d in dilations),
        )
        if len(self.windings) != 2 or len(self.dilations) != 2:
            raise ValueError("dumbbell covers take two windings and two dilations")
        if target_length is None:
            self._set(target_length=self._derive_target_length())
        else:
            self._set(target_length=_rational(target_length, "target length"))

    def _derive_target_length(self):
        for (n, d, length) in (
            (self.windings[0], self.dilations[0], self.curve.l_loop1),
            (self.windings[1], self.dilations[1], self.curve.l_loop2),
        ):
            if n > 0:
                return _quotient(d * length, n)
        return 0

    def _validate(self):
        return ValidationReport(*_dumbbell_violations(self))

    def _lower(self, report):
        return _walk_form(self.curve, self.dilations + (0,), self.target_length)


class GeneralCircleCover(_CircleCover):
    """A map from a metric graph to a circle, one affine walk per edge.

    edge_data aligns with graph.edges; each entry is a triple
    (dilation, start position, signed walk length)."""

    __slots__ = ("graph", "target_length", "edge_data")

    def __init__(self, graph, target_length, edge_data):
        if not isinstance(graph, MetricGraph):
            raise ValueError("GeneralCircleCover requires a MetricGraph")
        target_length = _positive_rational(target_length, "target length")
        if len(edge_data) != len(graph.edges):
            raise ValueError("edge_data must align with the graph's edges")
        cleaned = []
        for dilation, start, signed_length in edge_data:
            start = _rational(start, "start position") % target_length
            cleaned.append(
                (
                    _nonnegative_int(dilation, "dilation"),
                    _read_exact(start),  # a remainder of Fractions can be integral
                    _rational(signed_length, "signed walk length"),
                )
            )
        self._set(graph=graph, target_length=target_length, edge_data=tuple(cleaned))

    @property
    def dilations(self):
        return tuple(entry[0] for entry in self.edge_data)

    @property
    def slopes(self):
        """Integer slope of each edge: its dilation, negated when the walk
        runs backwards."""
        return tuple(-d if signed < 0 else d for d, _, signed in self.edge_data)

    @property
    def source(self):
        return self.graph

    @property
    def _form(self):
        """A general cover is its own form.  It is checked on every read
        and never kept, since a kept reference to itself would be a cycle."""
        require_valid(self)
        return self

    def _validate(self):
        violations = validate_general_cover(self)
        total = sum(
            dilation**2 * length
            for (_, _, length), dilation in zip(self.graph.edges, self.dilations)
        )
        degree = _quotient(total, self.target_length)
        if type(degree) is int:
            return ValidationReport(violations, degree)
        violations.append("degree: sum of d_e^2·l_e must be a multiple of l")
        return ValidationReport(violations, None)


def validate_general_cover(cover):
    """Violated-invariant names for a GeneralCircleCover (empty = valid).
    Any other argument raises ValueError."""
    if not isinstance(cover, GeneralCircleCover):
        raise ValueError("validate_general_cover expects a GeneralCircleCover")
    violations = []
    if not any(cover.dilations):
        violations.append("surjectivity: some edge must have a nonzero dilation")
    length = cover.target_length
    positions = {}
    consistent = True
    balance = dict.fromkeys(cover.graph.vertices, 0)  # outgoing minus incoming slopes
    for (tail, head, edge_length), (dilation, start, signed) in zip(
        cover.graph.edges, cover.edge_data
    ):
        if abs(signed) != dilation * edge_length:
            violations.append(f"image length on ({tail}, {head}): |walk| = dilation·length")
        slope = _quotient(signed, edge_length)
        balance[tail] += slope
        balance[head] -= slope
        for vertex, value in ((tail, start), (head, (start + signed) % length)):
            if positions.setdefault(vertex, value) != value:
                consistent = False
    if not consistent:
        violations.append("walk endpoints: edge images must agree at shared vertices")
    for vertex, net in balance.items():
        if net != 0:
            violations.append(f"harmonicity at {vertex}: outgoing slopes must cancel")
    return violations


class ValidationReport(_Value):
    """Outcome of validate_cover: the violated invariant names (a tuple),
    the degree, and (for theta covers) the resolved target arc lengths."""

    __slots__ = ("violations", "degree", "arcs")

    def __init__(self, violations, degree, arcs=None):
        self._set(violations=tuple(violations), degree=degree, arcs=arcs)

    @property
    def valid(self):
        return not self.violations


# Kernel-quotient data of a pushforward: the length of the quotient circle,
# the multiplicity a_sharp of the quotient map on lattices, and the
# multiplicity a_hash on dual lattices (the component count, an int).
GammaData = namedtuple("GammaData", ["l_tilde", "a_sharp", "a_hash"])


def _coordinates(graph):
    """What fixes the Jacobian coordinates of a graph: its vertices, its
    edges and its basis cycles, each cycle as its {edge index: coefficient}
    map, so that two graphs share coordinates exactly when these are equal,
    whatever the order of each cycle's pairs."""
    return graph.vertices, graph.edges, [dict(cycle) for cycle in graph._cycles]


def _universal_row(graph, slopes):
    """The row r with slopes = C·r for the cycle basis C of the graph, the
    inverse of _row_slopes.  Each cycle's first pair is its private edge p,
    with coefficient ±1, so r_i = slopes[p]·C[p, i]."""
    return [slopes[index] * coefficient for (index, coefficient), *_ in graph._cycles]


def _row_slopes(graph, row):
    """The slopes C·r of the universal cover row r, one per edge, for the
    cycle basis C of the graph: the inverse of _universal_row."""
    slopes = [0] * len(graph.edges)
    for entry, cycle in zip(row, graph._cycles):
        for index, coefficient in cycle:
            slopes[index] += entry * coefficient
    return slopes


def _solve_arcs(equations):
    """(l~1, l~2) from the first independent pair of realizability
    equations a·l~1 + b·l~2 = d·l, or None when no pair is independent."""
    for i, (a1, b1, c1, _) in enumerate(equations):
        for a2, b2, c2, _ in equations[i + 1:]:
            determinant = a1 * b2 - a2 * b1
            if determinant:
                return (
                    _quotient(c1 * b2 - c2 * b1, determinant),
                    _quotient(a1 * c2 - a2 * c1, determinant),
                )
    return None


def _theta_violations(cover):
    violations = []
    n, n1, n2 = cover.windings
    d_e, d_e1, d_e2 = cover.dilations
    curve = cover.curve
    if d_e != d_e1 + d_e2:
        violations.append("balancing: d_e = d_e1 + d_e2")
    if gcd(d_e, d_e1) == 0:
        violations.append("surjectivity: gcd(d_e, d_e1) != 0")
    # the realizability equation a·l~1 + b·l~2 = d·l of each edge
    equations = (
        (n, n - 1, d_e * curve.l_e,
         "realizability on e: d_e·l_e = n·l~1 + (n−1)·l~2"),
        (n1 - 1, n1, d_e1 * curve.l_e1,
         "realizability on e1: d_e1·l_e1 = (n1−1)·l~1 + n1·l~2"),
        (n2 - 1, n2, d_e2 * curve.l_e2,
         "realizability on e2: d_e2·l_e2 = (n2−1)·l~1 + n2·l~2"),
    )
    arcs = _solve_arcs(equations) if cover.arcs is None else cover.arcs
    if arcs is None:
        violations.append("metric realizability: target arcs underdetermined")
        return violations, None, None
    a1, a2 = arcs
    if a1 < 0 or a2 < 0:
        violations.append("nonnegative target arcs")
    if a1 + a2 <= 0:
        violations.append("positive target length: l~1 + l~2 > 0")
    for a, b, image_length, name in equations:
        if a * a1 + b * a2 != image_length:
            violations.append(name)
    degree = n * d_e + (n1 - 1) * d_e1 + (n2 - 1) * d_e2
    return violations, degree, arcs


def _dumbbell_violations(cover):
    violations = []
    n1, n2 = cover.windings
    d1, d2 = cover.dilations
    length = cover.target_length
    if d1 == 0 and d2 == 0:
        violations.append("surjectivity: (d1, d2) != (0, 0)")
    if length <= 0:
        violations.append("positive target length: l > 0")
    if d1 * cover.curve.l_loop1 != n1 * length:
        violations.append("realizability on loop1: d1·l_loop1 = n1·l")
    if d2 * cover.curve.l_loop2 != n2 * length:
        violations.append("realizability on loop2: d2·l_loop2 = n2·l")
    degree = n1 * d1 + n2 * d2
    return violations, degree


def _require_genus_2(graph):
    """The one genus guard: an argument that is no MetricGraph raises
    ValueError, and a graph whose genus is not 2 raises UnsupportedGenus."""
    if not isinstance(graph, MetricGraph):
        raise ValueError(f"needs a curve model or a MetricGraph, not {type(graph).__name__}")
    if graph.genus != 2:
        raise UnsupportedGenus(f"needs a genus-2 graph, not one of genus {graph.genus}")


def _circle_cover(cover):
    """The cover itself, once it is checked to be a circle cover."""
    if not isinstance(cover, _CircleCover):
        raise ValueError("validate_cover expects a circle cover")
    return cover


def validate_cover(cover):
    """Check every combinatorial and metric invariant of a cover.  The
    report is built once per cover and shared by every later call."""
    return _circle_cover(cover)._report


def require_valid(cover):
    """ValidationReport of a valid cover, or InvalidCover naming the breaks."""
    report = validate_cover(cover)
    if not report.valid:
        raise InvalidCover("; ".join(report.violations))
    return report


def harmonic_form(cover):
    """The GeneralCircleCover form of a valid cover, over the cover's own
    graph and cycle basis; every invariant is computed from it."""
    return _circle_cover(cover)._form


def cover_degree(cover):
    return require_valid(cover).degree


def target_length(cover):
    """Target circle length of a valid cover."""
    return harmonic_form(cover).target_length


def ramification_index(cover, point):
    """R_P = 2·d_P − 2 − Σ(d_v − 1) over the tangent directions at P, with
    contracted tangents contributing d_v = 0.  P is a vertex ("P0", "P1" on
    a curve model) or an edge, by name or index, for an edge-interior point."""
    form = harmonic_form(cover)
    graph = form.graph
    if point in graph.vertices:
        # slope of the walk as it leaves P along each incident edge
        tangents = []
        for slope, (tail, head, _) in zip(form.slopes, graph.edges):
            if tail == point:
                tangents.append(slope)
            if head == point:
                tangents.append(-slope)
    else:
        slope = form.slopes[graph.edge_index(point)]
        tangents = [slope, -slope]
    local_degree = sum(s for s in tangents if s > 0)
    return 2 * local_degree - 2 - sum(abs(s) - 1 for s in tangents)


def jacobian(graph):
    """Jacobian as a principally polarized variety: rank = genus, pairing =
    the cycle-basis period matrix, polarization = identity.  The graph
    builds it once and keeps it, so every call on one graph, and every
    cover of it, shares one period matrix."""
    if not isinstance(graph, MetricGraph):
        raise ValueError("jacobian expects a curve model or a MetricGraph")
    return graph._jacobian


def abel_jacobi(graph, basepoint, point):
    """Class of the path integral from the basepoint to (edge, offset),
    reduced to the canonical fundamental domain of the Jacobian.

    The basepoint is a vertex ("P0" or "P1" on a curve model) and the edge is
    named (curve models) or indexed; the path runs along the BFS tree to the
    tail of the edge, then along the edge.
    """
    if not isinstance(graph, MetricGraph):
        raise ValueError("abel_jacobi expects a curve model or a MetricGraph")
    edge, offset = point
    index = graph.edge_index(edge)
    if basepoint not in graph.vertices:
        raise ValueError(f"unknown basepoint {basepoint!r}")
    tail, _, length = graph.edges[index]
    offset = _rational(offset, "offset")
    if offset < 0 or offset > length:
        raise OffsetOutOfRange(f"offset {offset} outside [0, {length}] on edge {edge}")
    # the length the path runs along each edge it uses, signed
    along = {e: c * graph.edges[e][2] for e, c in graph.tree_path(basepoint, tail).items()}
    along[index] = along.get(index, 0) + offset
    coords = [sum(along.get(e, 0) * c for e, c in cycle) for cycle in graph._cycles]
    return reduce_point(jacobian(graph).torus, coords)
